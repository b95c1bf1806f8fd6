"""Irreps, the group Fourier transform, and measurement-procedure equivalence."""

import numpy as np
import pytest

from dihedral_pgm import (DihedralElement, IrrepLabel, element_from_index,
                          equivalence_check, hidden_state_in_irrep_basis,
                          hidden_subgroup_state, irrep, irrep_labels,
                          left_regular, multiply, phase_table, qft_dihedral,
                          reptheory, right_regular, subgroup_elements)
from dihedral_pgm.cli import main

X = np.array([[0.0, 1.0], [1.0, 0.0]])
H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def _equivalence_one_shift(N, d):
    """The irrep-basis procedure for one shift, label by label: the state
    rebuilt for d, its blocks read irrep by irrep.  The slow path of
    equivalence_check; it reads qft_dihedral and phase_table through the
    module, so a monkeypatched control reaches both paths."""
    rho = hidden_subgroup_state(subgroup_elements("order2", N, d=d))
    Q = reptheory.qft_dihedral(N)
    M = Q @ rho @ Q.conj().T
    probs = np.zeros(N)
    states = [np.zeros((2, 2), dtype=np.complex128) for _ in range(N)]
    offsets, offset = {}, 0
    for label in irrep_labels(N):
        span = label.dimension ** 2
        block = M[offset:offset + span, offset:offset + span]
        if label.kind == "two_dim":
            # row outcome 0 -> label N - x as is; 1 -> label x, bit flipped
            y0 = (N - label.x) % N
            probs[y0] += block[:2, :2].trace().real
            states[y0] += block[:2, :2]
            probs[label.x] += block[2:, 2:].trace().real
            states[label.x] += X @ block[2:, 2:] @ X
        offsets[label.kind] = offset
        offset += span
    pairs = [(0, "trivial", "alternating")]
    if N % 2 == 0:
        pairs.append((N // 2, "even", "odd"))
    for y, first, second in pairs:
        rows = [offsets[first], offsets[second]]
        pooled = H @ M[np.ix_(rows, rows)] @ H
        probs[y] += pooled.trace().real
        states[y] += pooled
    tol = reptheory.EQUIVALENCE_TOL
    if np.abs(probs - 1.0 / N).sum() / 2 > tol:
        return False
    table = reptheory.phase_table(N)
    for y in range(N):
        target = np.array([1.0, table[(y * d) % N]]) / np.sqrt(2)
        diff = states[y] / probs[y] - np.outer(target, target.conj())
        if np.abs(np.linalg.eigvalsh(diff)).sum() / 2 > tol:
            return False
    return True


def test_irrep_dimension_completeness():
    for N in range(1, 17):
        assert sum(l.dimension ** 2 for l in irrep_labels(N)) == 2 * N


def test_two_dim_example():
    got = irrep(IrrepLabel("two_dim", 1), DihedralElement(0, 1, 4))
    assert np.abs(got - np.diag([1j, -1j])).max() < 1e-15


def test_identity_maps_to_identity():
    for N in (3, 4, 8):
        e = DihedralElement(0, 0, N)
        for label in irrep_labels(N):
            got = irrep(label, e)
            assert np.abs(got - np.eye(label.dimension)).max() == 0.0


def test_homomorphism_randomized():
    rng = np.random.default_rng(73)
    for N in (3, 4, 7, 8):
        for label in irrep_labels(N):
            for _ in range(50):
                g1 = element_from_index(int(rng.integers(2 * N)), N)
                g2 = element_from_index(int(rng.integers(2 * N)), N)
                lhs = irrep(label, g1) @ irrep(label, g2)
                rhs = irrep(label, multiply(g1, g2))
                assert np.abs(lhs - rhs).max() < 1e-13


def test_irreps_unitary():
    for N in (3, 4, 8):
        for label in irrep_labels(N):
            for idx in range(2 * N):
                M = irrep(label, element_from_index(idx, N))
                assert np.abs(M @ M.conj().T
                              - np.eye(label.dimension)).max() < 1e-13


def test_minus_x_conjugation():
    # the matrix built at index N - x equals X Gamma_x X entrywise
    for N in (5, 8):
        table = phase_table(N)
        for x in range(1, (N + 1) // 2):
            for idx in range(2 * N):
                g = element_from_index(idx, N)
                got = X @ irrep(IrrepLabel("two_dim", x), g) @ X
                up = table[((N - x) * g.k) % N]
                down = table[(-(N - x) * g.k) % N]
                expected = (np.array([[up, 0], [0, down]]) if g.t == 0
                            else np.array([[0, down], [up, 0]]))
                assert np.abs(got - expected).max() < 1e-13


def test_even_odd_need_even_n():
    with pytest.raises(ValueError, match="even"):
        irrep(IrrepLabel("even"), DihedralElement(0, 1, 5))
    with pytest.raises(ValueError):
        irrep(IrrepLabel("two_dim", 3), DihedralElement(0, 1, 4))


@pytest.mark.parametrize("N", range(2, 17))
def test_qft_unitary(N):
    Q = qft_dihedral(N)
    assert np.abs(Q @ Q.conj().T - np.eye(2 * N)).max() < 1e-12


def test_qft_built_once_per_n_and_read_only():
    Q = qft_dihedral(6)
    assert qft_dihedral(6) is Q
    assert not Q.flags.writeable
    with pytest.raises(ValueError):
        Q[0, 0] = 0


def test_qft_n2_is_scaled_character_table():
    # all four irreps of the order-4 group are one dimensional
    Q = qft_dihedral(2)
    expected = 0.5 * np.array([
        [1, 1, 1, 1],     # trivial
        [1, 1, -1, -1],   # alternating
        [1, -1, 1, -1],   # even
        [1, -1, -1, 1],   # odd
    ])
    assert np.abs(Q - expected).max() < 1e-15


def test_qft_block_diagonalizes_left_regular():
    rng = np.random.default_rng(79)
    for N in (3, 4, 8):
        Q = qft_dihedral(N)
        for _ in range(20):
            g = element_from_index(int(rng.integers(2 * N)), N)
            got = Q @ left_regular(g) @ Q.conj().T
            expected = np.zeros((2 * N, 2 * N), dtype=complex)
            off = 0
            for label in irrep_labels(N):
                d = label.dimension
                expected[off:off + d * d, off:off + d * d] = np.kron(
                    irrep(label, g), np.eye(d))
                off += d * d
            assert np.abs(got - expected).max() < 1e-12


def test_regular_representations_commute():
    rng = np.random.default_rng(83)
    for N in (3, 4, 6):
        for _ in range(20):
            g1 = element_from_index(int(rng.integers(2 * N)), N)
            g2 = element_from_index(int(rng.integers(2 * N)), N)
            lhs = left_regular(g1) @ right_regular(g2)
            rhs = right_regular(g2) @ left_regular(g1)
            assert np.array_equal(lhs, rhs)


def test_hidden_state_is_subgroup_average_of_right_regular():
    for N in (4, 6):
        for sub in (subgroup_elements("trivial", N),
                    subgroup_elements("order2", N, d=1),
                    subgroup_elements("cyclic", N, j=2),
                    subgroup_elements("dihedral", N, j=2, d=1),
                    subgroup_elements("cyclic", N, j=1)):
            rho = hidden_subgroup_state(sub, N)
            avg = sum(right_regular(h) for h in sub) / (2 * N)
            assert np.abs(rho - avg).max() < 1e-12


def test_irrep_decomposition_trivial_subgroup():
    dec = hidden_state_in_irrep_basis(subgroup_elements("trivial", 4), 4)
    for label, p in zip(dec.labels, dec.probs):
        assert abs(p - label.dimension ** 2 / 8) < 1e-12


def test_irrep_decomposition_order_two():
    dec = hidden_state_in_irrep_basis(subgroup_elements("order2", 4, d=2), 4)
    by_kind = {(l.kind, l.x): p for l, p in zip(dec.labels, dec.probs)}
    assert abs(by_kind[("two_dim", 1)] - 0.5) < 1e-12
    assert abs(by_kind[("trivial", 0)] - 0.25) < 1e-12
    assert abs(by_kind[("alternating", 0)]) < 1e-12
    assert abs(by_kind[("even", 0)] - 0.25) < 1e-12  # d even
    assert abs(by_kind[("odd", 0)]) < 1e-12
    # column state for the two-dimensional irrep: (I + Gamma(rs^2)) / 2
    col = dec.column_states[0]
    g = DihedralElement(1, 2, 4)
    expected = (np.eye(2) + irrep(IrrepLabel("two_dim", 1), g)) / 2
    assert np.abs(col - expected).max() < 1e-12


def test_irrep_decomposition_full_rotation_subgroup():
    dec = hidden_state_in_irrep_basis(subgroup_elements("cyclic", 4, j=1), 4)
    by_kind = {l.kind: p for l, p in zip(dec.labels, dec.probs)}
    assert abs(by_kind["trivial"] - 0.5) < 1e-12
    assert abs(by_kind["alternating"] - 0.5) < 1e-12
    assert abs(by_kind["two_dim"]) < 1e-12
    assert abs(by_kind["even"]) < 1e-12


def test_irrep_decomposition_probabilities_sum_to_one():
    for N in (3, 5, 6):
        for d in range(N):
            dec = hidden_state_in_irrep_basis(
                subgroup_elements("order2", N, d=d), N)
            assert abs(sum(dec.probs) - 1) < 1e-12


@pytest.mark.parametrize("N", [2, 3, 4, 5, 8])
def test_equivalence_check(N):
    for d in range(N):
        assert equivalence_check(N, [d])


def test_equivalence_check_over_all_shifts_matches_one_shift_at_a_time():
    for N in range(2, 17):
        per_shift = [_equivalence_one_shift(N, d) for d in range(N)]
        assert all(per_shift)
        assert equivalence_check(N, range(N)) == all(per_shift)
        # shifts outside [0, N) and from any iterable name the same states
        assert equivalence_check(N, (d + 3 * N for d in range(N)))
        assert equivalence_check(N, np.arange(-N, 0))


def test_equivalence_check_in_stacks_of_one_shift(monkeypatch):
    # past STATE_STACK_BYTES the shifts run in several stacks; a failure
    # in a later stack still fails the check
    monkeypatch.setattr(reptheory, "STATE_STACK_BYTES", 1)
    for N in (2, 5, 8):
        assert equivalence_check(N, range(N))
    monkeypatch.setattr(reptheory, "phase_table",
                        lambda n: np.conj(phase_table(n)))
    assert not equivalence_check(5, range(5))


@pytest.mark.parametrize("N", [3, 4, 5, 6, 8])
def test_equivalence_check_fails_on_conjugated_targets(N, monkeypatch):
    # conjugate the roots of unity of the block-decomposition targets only;
    # the Fourier transform is built first and kept, since conjugating it
    # too would relabel x -> N - x consistently on both sides
    Q = qft_dihedral(N)
    monkeypatch.setattr(reptheory, "qft_dihedral", lambda n: Q)
    monkeypatch.setattr(reptheory, "phase_table",
                        lambda n: np.conj(phase_table(n)))
    assert not equivalence_check(N, [1])
    assert not equivalence_check(N, range(N))
    assert not _equivalence_one_shift(N, 1)
    # shift 0 has real targets, which conjugation leaves as they are
    assert equivalence_check(N, [0]) and _equivalence_one_shift(N, 0)


@pytest.mark.parametrize("N", [2, 3, 4, 8])
def test_equivalence_check_fails_on_label_probabilities(N, monkeypatch,
                                                        capsys):
    # label 0's pooled block reads its first row twice, so its trace, the
    # label's probability, is no longer 1/N: the check fails there, before
    # any column state is compared, and verify reports it with exit 1
    blocks = reptheory._label_blocks

    def one_row_twice(n):
        rows, pooled = blocks(n)
        rows = rows.copy()
        rows[0, 1] = rows[0, 0]
        return rows, pooled

    def no_states(*args):
        raise AssertionError("compared column states")

    monkeypatch.setattr(reptheory, "_label_blocks", one_row_twice)
    monkeypatch.setattr(reptheory, "_trace_distances", no_states)
    assert not equivalence_check(N, range(N))
    assert not equivalence_check(N, [0])
    monkeypatch.undo()
    monkeypatch.setattr(reptheory, "_label_blocks", one_row_twice)
    assert main(["verify", "--N", str(N), "--k", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "irrep-equivalence single-copy all-shifts FAIL" in lines
    assert all(line.endswith("PASS") for line in lines
               if not line.startswith("irrep-equivalence"))

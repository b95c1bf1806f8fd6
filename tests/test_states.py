"""State constructions: coset states, the conditional-Fourier basis, and
agreement between dense and block-compressed forms."""

import numpy as np
import pytest

from dihedral_pgm import (TRIVIAL, BlockLabel, ScaleLimitError,
                          assemble_block_density, bit_dot_table,
                          block_basis_transform, block_state,
                          coset_state_group_basis, dense_state,
                          element_from_index, hidden_subgroup_state,
                          multiply, phase_table, subgroup_elements,
                          tilde_basis_change)


def _coset_mixture(d, N):
    """Independent oracle: (1/N) sum_k |phi_(k,d)><phi_(k,d)|."""
    vs = [coset_state_group_basis(k, d, N) for k in range(N)]
    return sum(np.outer(v, v.conj()) for v in vs) / N


def test_coset_state_positions():
    v = coset_state_group_basis(0, 1, 2)
    assert np.flatnonzero(v).tolist() == [0, 3]
    v = coset_state_group_basis(3, 1, 4)
    assert np.flatnonzero(v).tolist() == [3, 4 + 2]
    v = coset_state_group_basis(1, 0, 3)
    assert np.flatnonzero(v).tolist() == [1, 3 + 2]
    assert abs(np.linalg.norm(v) - 1) < 1e-15


def test_tilde_basis_n1_identity():
    assert np.array_equal(tilde_basis_change(1), np.eye(2))


@pytest.mark.parametrize("N", range(2, 17))
def test_tilde_basis_unitary(N):
    U = tilde_basis_change(N)
    assert np.abs(U @ U.conj().T - np.eye(2 * N)).max() < 1e-12


@pytest.mark.parametrize("N,d", [(2, 0), (2, 1), (3, 1), (5, 3), (8, 5)])
def test_tilde_pushforward_matches_block_form(N, d):
    U = tilde_basis_change(N)
    pushed = U @ _coset_mixture(d, N) @ U.conj().T
    table = phase_table(N)
    expected = np.zeros((2 * N, 2 * N), dtype=complex)
    for x in range(N):
        phi = np.zeros(2 * N, dtype=complex)
        phi[x] = 1 / np.sqrt(2)
        phi[N + x] = table[(x * d) % N] / np.sqrt(2)
        expected += np.outer(phi, phi.conj()) / N
    assert np.abs(pushed - expected).max() < 1e-12


def test_hidden_subgroup_state_order_two_matches_cosets():
    for N, d in [(2, 1), (4, 3), (5, 0)]:
        rho = hidden_subgroup_state(subgroup_elements("order2", N, d=d))
        assert np.abs(rho - _coset_mixture(d, N)).max() < 1e-14


def test_hidden_subgroup_state_trivial_is_maximally_mixed():
    for N in (2, 5):
        rho = hidden_subgroup_state(subgroup_elements("trivial", N))
        assert np.abs(rho - np.eye(2 * N) / (2 * N)).max() < 1e-15


@pytest.mark.parametrize("N", range(1, 17))
def test_hidden_subgroup_state_equals_outer_product_sum_bitwise(N):
    # each entry of V V^dag has one nonzero term, so the single product is
    # bitwise the sum of one dense outer product per coset
    dim = 2 * N
    subgroups = [subgroup_elements("trivial", N)]
    subgroups += [subgroup_elements("order2", N, d=d) for d in range(N)]
    for sub in subgroups:
        elems = list(sub)
        order = len(elems)
        expected = np.zeros((dim, dim), dtype=np.complex128)
        seen = np.zeros(dim, dtype=bool)
        for idx in range(dim):
            if seen[idx]:
                continue
            g = element_from_index(idx, N)
            coset = [multiply(g, h).index for h in elems]
            seen[coset] = True
            v = np.zeros(dim, dtype=np.complex128)
            v[coset] = 1 / np.sqrt(order)
            expected += (order / dim) * np.outer(v, v.conj())
        rho = hidden_subgroup_state(sub, N)
        assert rho.dtype == expected.dtype
        assert rho.tobytes() == expected.tobytes()


def test_block_state_examples():
    s = block_state(BlockLabel((1,), 2), 0).amplitudes
    assert np.allclose(s, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)
    s = block_state(BlockLabel((1,), 2), 1).amplitudes
    assert np.allclose(s, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-15)
    # b in {00, 10, 01, 11}: b.x = 0, 1, 2, 3 and omega = i
    s = block_state(BlockLabel((1, 2), 4), 1).amplitudes
    assert np.allclose(s, np.array([1, 1j, -1, -1j]) / 2, atol=1e-15)


def test_block_state_trivial_flag():
    st = block_state(BlockLabel((1, 0), 3), TRIVIAL)
    assert st.is_trivial and st.amplitudes is None


def test_block_state_norms():
    rng = np.random.default_rng(7)
    for _ in range(50):
        N = int(rng.integers(2, 9))
        k = int(rng.integers(1, 7))
        label = BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        amps = block_state(label, int(rng.integers(N))).amplitudes
        assert abs(np.vdot(amps, amps).real - 1) < 1e-12


def test_bit_dot_little_endian():
    sums = bit_dot_table(BlockLabel((1, 2), 4))
    # b = 1 means b_1 = 1 (include x_1 only)
    assert sums.tolist() == [0, 1, 2, 3]


def _python_bit_dots(x, N):
    """Independent oracle: b . x as Python integers, reduced mod N once."""
    return [sum(v for j, v in enumerate(x) if (b >> j) & 1) % N
            for b in range(2 ** len(x))]


@pytest.mark.parametrize("N,x", [
    # k N > 2^31 at a non-power-of-two N: int32 sums wrapped here
    (500_000_003, (500_000_002,) * 8),
    (3 * 2 ** 31 + 1, (3 * 2 ** 31, 2 ** 31 + 7, 12345, 3 * 2 ** 31 - 1)),
    (2 ** 62 - 57, (2 ** 62 - 58, 2 ** 62 - 59, 2 ** 61 + 3)),
])
def test_bit_dot_table_is_exact_beyond_int32(N, x):
    sums = bit_dot_table(BlockLabel(x, N))
    assert sums.dtype == np.int64
    assert sums.tolist() == _python_bit_dots(x, N)


def test_bit_dot_table_guards_n_at_2_62():
    with pytest.raises(ScaleLimitError, match="int64 bit-dot guard"):
        bit_dot_table(BlockLabel((1, 2), 2 ** 62))


def test_dense_state_trivial():
    assert np.array_equal(dense_state(TRIVIAL, 1, 2), np.eye(4) / 4)


def test_dense_state_trace_and_purity():
    for N in (2, 3, 4):
        for k in (1, 2):
            if (2 * N) ** k > 4096:
                continue
            rho = dense_state(1, k, N)
            assert abs(np.trace(rho).real - 1) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-12
            assert abs(np.trace(rho @ rho).real - 1 / N ** k) < 1e-12


def test_dense_state_guard():
    with pytest.raises(ScaleLimitError, match="oracle scale"):
        dense_state(0, 5, 8)


@pytest.mark.parametrize("N,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_dense_matches_block_assembly(N, k):
    W = block_basis_transform(N, k)
    assert np.abs(W @ W.conj().T - np.eye((2 * N) ** k)).max() < 1e-12
    for d in range(N):
        dense = W @ dense_state(d, k, N) @ W.conj().T
        assert np.abs(dense - assemble_block_density(d, k, N)).max() < 1e-12
    dense = W @ dense_state(TRIVIAL, k, N) @ W.conj().T
    assert np.abs(dense - assemble_block_density(TRIVIAL, k, N)).max() < 1e-12


def test_block_label_flat_round_trip():
    label = BlockLabel((2, 0, 1), 3)
    assert label.flat_index == 2 * 9 + 0 * 3 + 1
    assert BlockLabel.from_flat(label.flat_index, 3, 3) == label
    with pytest.raises(ValueError):
        BlockLabel((3,), 3)

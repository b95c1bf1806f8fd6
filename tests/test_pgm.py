"""Measurement construction and optimality certification."""

import numpy as np
import pytest

from dihedral_pgm import (BlockLabel, LsbPovm, ScaleLimitError,
                          assemble_block_density, certify_dihedral_pgm,
                          completion_effect, dense_block_effects,
                          gram_operator, lsb_povm, neumark_complete,
                          pgm_dense, povm_block, verify_holevo, vtilde)
from dihedral_pgm.cli import main

#: Every oracle size the certifiers run at: (2N)^k <= 4096.
CERT_SIZES = [(N, k) for N in (2, 3, 4, 5, 6, 8) for k in range(1, 13)
              if (2 * N) ** k <= 4096]


def test_povm_block_two_point_example():
    blk = povm_block(BlockLabel((1,), 2))
    s = 1 / np.sqrt(2)
    assert np.allclose(blk.effect_vectors[0], [s, s], atol=1e-15)
    assert np.allclose(blk.effect_vectors[1], [s, -s], atol=1e-15)
    E0, E1 = blk.effect(0), blk.effect(1)
    # orthogonal projectors
    assert np.abs(E0 @ E0 - E0).max() < 1e-15
    assert np.abs(E0 @ E1).max() < 1e-15


def test_povm_block_degenerate_example():
    blk = povm_block(BlockLabel((0,), 2))
    assert blk.support_dim == 1
    assert np.allclose(blk.effect_vectors[0], [0.5, 0.5], atol=1e-15)
    assert np.allclose(blk.effect_vectors[1], [0.5, 0.5], atol=1e-15)
    S0 = np.full((2, 2), 0.5)
    assert np.abs(blk.effect(0) - S0 / 2).max() < 1e-15


def test_povm_block_completeness_random():
    rng = np.random.default_rng(53)
    for _ in range(100):
        N = int(rng.integers(2, 9))
        k = int(rng.integers(1, 7))
        label = BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        blk = povm_block(label)
        total = sum(blk.effect(j) for j in range(N))
        assert np.abs(total - blk.support_projector()).max() < 1e-12
        trace = sum(np.vdot(v, v).real for v in blk.effect_vectors)
        assert abs(trace - blk.support_dim) < 1e-12


def test_gram_rank_small():
    assert gram_operator(2, 1).rank() == 3
    # brute-force oracle: count occupied (x, p) pairs directly
    for N, k in [(2, 2), (3, 2), (4, 1), (4, 2)]:
        count = 0
        for X in range(N ** k):
            label = BlockLabel.from_flat(X, N, k)
            eta = np.bincount(np.asarray(
                [sum(x for j, x in enumerate(label.x) if (b >> j) & 1) % N
                 for b in range(2 ** k)]), minlength=N)
            count += int(np.count_nonzero(eta))
        assert gram_operator(N, k).rank() == count


def test_gram_blocks_match_dense_sum():
    for N, k in [(2, 1), (2, 2), (3, 1)]:
        G = sum(assemble_block_density(d, k, N) for d in range(N))
        op = gram_operator(N, k)
        blk = 2 ** k
        for X in range(N ** k):
            label = BlockLabel.from_flat(X, N, k)
            sub = G[X * blk:(X + 1) * blk, X * blk:(X + 1) * blk]
            assert np.abs(sub - op.block(label)).max() < 1e-12
        assert abs(np.trace(G).real - op.trace()) < 1e-12


def test_gram_lazy_blocks_beyond_rank_guard():
    op = gram_operator(64, 5)  # 64^5 blocks: far beyond eager enumeration
    with pytest.raises(ScaleLimitError):
        op.rank()
    label = BlockLabel((1, 5, 9, 20, 63), 64)
    block = op.block(label)
    assert block.shape == (32, 32)
    # spectral content: eigenvalues are scale * eta_r on the occupied span
    from dihedral_pgm import count_eta
    eta = sorted(e for e in count_eta(label).eta if e > 0)
    scale = 64 / float(128 ** 5)
    lam = np.sort(np.linalg.eigvalsh(block))[-len(eta):]
    assert np.abs(lam - scale * np.array(eta, dtype=float)).max() < 1e-18


def test_pgm_dense_orthogonal_states():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    effects = pgm_dense([zero, one], [0.5, 0.5])
    assert np.abs(effects[0] - zero).max() < 1e-12
    assert np.abs(effects[1] - one).max() < 1e-12


def test_pgm_dense_single_state_gives_support_projector():
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    rho = np.outer(v, v).astype(complex)
    (effect,) = pgm_dense([rho], [1.0])
    assert np.abs(effect - rho / np.trace(rho).real * 1).max() < 1e-10
    assert np.abs(effect @ effect - effect).max() < 1e-10


def test_pgm_dense_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        pgm_dense([np.eye(2, dtype=complex), np.eye(3, dtype=complex)],
                  [0.5, 0.5])


@pytest.mark.parametrize("N,k", [(2, 1), (2, 2), (3, 1), (4, 1)])
def test_pgm_dense_matches_closed_form_globally(N, k):
    states = [assemble_block_density(d, k, N) for d in range(N)]
    built = pgm_dense(states, [1 / N] * N)
    closed = dense_block_effects(N, k)
    for a, b in zip(built, closed):
        assert np.abs(a - b).max() < 1e-10


def test_pgm_dense_matches_closed_form_per_block():
    rng = np.random.default_rng(61)
    from dihedral_pgm import block_state
    for _ in range(20):
        N = int(rng.integers(2, 7))
        k = int(rng.integers(1, 6))
        label = BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        states = []
        for d in range(N):
            psi = block_state(label, d).amplitudes
            states.append(np.outer(psi, psi.conj()))
        built = pgm_dense(states, [1 / N] * N)
        blk = povm_block(label)
        for j in range(N):
            assert np.abs(built[j] - blk.effect(j)).max() < 1e-10


def test_block_phases_stack_block_states_bitwise():
    from dihedral_pgm import block_state
    from dihedral_pgm.pgm import _block_phases
    rng = np.random.default_rng(67)
    for _ in range(100):
        N = int(rng.integers(2, 9))
        k = int(rng.integers(1, 7))
        label = BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        slow = np.stack([block_state(label, d).amplitudes for d in range(N)])
        assert np.array_equal(_block_phases(label)[1] / np.sqrt(2.0 ** k), slow)


@pytest.mark.parametrize("shift", [0, 1, 3])
def test_certify_ensemble_is_block_states_and_povm_block(shift, monkeypatch):
    from dihedral_pgm import block_state, pgm
    monkeypatch.setattr(pgm, "_certify_blocks", lambda N, k, ens, tol: ens)
    for N, k in [(2, 3), (3, 2), (4, 2), (8, 1)]:
        ensemble = certify_dihedral_pgm(N, k, assignment_shift=shift)
        for X in range(N ** k):
            label = BlockLabel.from_flat(X, N, k)
            priors, states, effects = ensemble(label)
            psi = np.stack([block_state(label, d).amplitudes
                            for d in range(N)])
            e = povm_block(label).effect_vectors[(np.arange(N) + shift) % N]
            assert np.array_equal(priors, np.full(N, 1.0 / N ** (k + 1)))
            assert np.array_equal(states,
                                  psi[:, :, None] * psi.conj()[:, None, :])
            assert np.array_equal(effects,
                                  e[:, :, None] * e.conj()[:, None, :])


def test_verify_holevo_orthogonal_projectors():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    report = verify_holevo([zero, one], [0.5, 0.5], [zero, one])
    assert report.passed
    assert report.hermiticity_residual <= 1e-15
    assert report.dominance_min_eigenvalue == 0.0
    assert report.operator is not None
    # swapped effects: L = 0, so L - p_0 rho_0 has the eigenvalue -1/2
    swapped = verify_holevo([zero, one], [0.5, 0.5], [one, zero])
    assert not swapped.passed
    assert swapped.hermiticity_residual == 0.0
    assert swapped.dominance_min_eigenvalue == -0.5


@pytest.mark.parametrize("N,k", [(2, 1), (2, 2), (3, 1), (4, 1)])
def test_verify_holevo_dihedral_dense(N, k):
    states = [assemble_block_density(d, k, N) for d in range(N)]
    effects = dense_block_effects(N, k)
    report = verify_holevo(states, [1 / N] * N, effects)
    assert report.passed


def test_verify_holevo_permuted_assignment_fails():
    N, k = 4, 1
    states = [assemble_block_density(d, k, N) for d in range(N)]
    effects = dense_block_effects(N, k)
    permuted = effects[1:] + effects[:1]
    report = verify_holevo(states, [1 / N] * N, permuted)
    assert not report.passed
    assert report.dominance_min_eigenvalue < -1e-9


def test_verify_holevo_rejects_bad_inputs():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        verify_holevo([zero, one], [0.5, 0.5], [zero, -one])
    with pytest.raises(ValueError, match="resolve the ensemble support"):
        verify_holevo([zero, one], [0.5, 0.5], [zero, 0.5 * one])


def test_certify_matches_dense_verification():
    for N, k in [(2, 1), (2, 2), (3, 1), (4, 1)]:
        blockwise = certify_dihedral_pgm(N, k)
        states = [assemble_block_density(d, k, N) for d in range(N)]
        effects = dense_block_effects(N, k)
        dense = verify_holevo(states, [1 / N] * N, effects)
        assert blockwise.passed and dense.passed
        assert abs(blockwise.hermiticity_residual
                   - dense.hermiticity_residual) < 1e-12
        assert abs(blockwise.dominance_min_eigenvalue
                   - dense.dominance_min_eigenvalue) < 1e-12


@pytest.mark.parametrize("N,k", CERT_SIZES)
def test_certify_perturbed_fails_dominance(N, k):
    report = certify_dihedral_pgm(N, k, assignment_shift=1)
    assert not report.passed
    assert report.dominance_min_eigenvalue < -1e-9
    assert main(["verify", "--N", str(N), "--k", str(k), "--perturb"]) == 1
    assert main(["verify", "--N", str(N), "--k", str(k)]) == 0


def test_certify_guard():
    with pytest.raises(ScaleLimitError):
        certify_dihedral_pgm(9, 4)
    # The guard runs before any array or N^k float is built: 2^1100 would
    # overflow a float, and N = 10^9 would allocate gigabytes of priors.
    for N, k in [(2, 1100), (10 ** 9, 1)]:
        with pytest.raises(ScaleLimitError):
            certify_dihedral_pgm(N, k)
        with pytest.raises(ScaleLimitError):
            lsb_povm(N, k).certify()


def test_completion_effect_blockwise():
    for N, k in [(2, 1), (2, 2), (4, 1)]:
        E_rest = completion_effect(N, k)
        # complement of the per-block support projectors
        blk = 2 ** k
        expected = np.zeros_like(E_rest)
        for X in range(N ** k):
            label = BlockLabel.from_flat(X, N, k)
            V = vtilde(label).rows
            expected[X * blk:(X + 1) * blk, X * blk:(X + 1) * blk] = (
                np.eye(blk) - V.conj().T @ V)
        assert np.abs(E_rest - expected).max() < 1e-10
        assert np.linalg.eigvalsh((E_rest + E_rest.conj().T) / 2).min() > -1e-10


def test_lsb_requires_even_n():
    with pytest.raises(ValueError, match="N must be even"):
        lsb_povm(3, 2)


def test_lsb_blocks_aggregate_shift_effects():
    # E_+/- must equal the even/odd sums of the N-outcome effects.
    for N, k in [(2, 1), (2, 2), (4, 1), (4, 2)]:
        povm = lsb_povm(N, k)
        for X in range(N ** k):
            label = BlockLabel.from_flat(X, N, k)
            blk = povm_block(label)
            even = sum(blk.effect(d) for d in range(0, N, 2))
            odd = sum(blk.effect(d) for d in range(1, N, 2))
            Ep, Em = povm.block(label)
            assert np.abs(Ep - even).max() < 1e-12
            assert np.abs(Em - odd).max() < 1e-12
            V = vtilde(label).rows
            assert np.abs((Ep + Em) - V.conj().T @ V).max() < 1e-12


def test_lsb_certify():
    assert lsb_povm(4, 1).certify().passed
    assert lsb_povm(4, 2).certify().passed
    assert lsb_povm(6, 1).certify().passed
    assert lsb_povm(2, 3).certify().passed


@pytest.mark.parametrize("N,k", [(N, k) for N, k in CERT_SIZES if N % 2 == 0])
def test_lsb_certify_swapped_effects_fail(N, k, monkeypatch):
    # assigning E- to the even shifts and E+ to the odd ones must fail
    block = LsbPovm.block
    monkeypatch.setattr(LsbPovm, "block",
                        lambda self, label: block(self, label)[::-1])
    report = lsb_povm(N, k).certify()
    assert not report.passed
    assert report.dominance_min_eigenvalue < -1e-9


def test_one_bit_dot_table_per_block(monkeypatch):
    from dihedral_pgm import dihedral, pgm, subsetsum
    calls = []
    table = dihedral.bit_dot_table

    def counted(label):
        calls.append(label)
        return table(label)

    for module in (dihedral, pgm, subsetsum):
        monkeypatch.setattr(module, "bit_dot_table", counted)
    lsb_povm(4, 2).certify()
    assert len(calls) == 4 ** 2
    label = BlockLabel((1, 3), 4)
    gram_operator(4, 2).block(label)
    neumark_complete(label)
    assert len(calls) == 4 ** 2 + 1
    assert not label.bit_dots.flags.writeable
    assert np.array_equal(label.bit_dots, table(label))


def test_lsb_certify_matches_dense():
    N, k = 4, 1
    rho_plus = sum(assemble_block_density(d, k, N)
                   for d in range(0, N, 2)) * (2 / N)
    rho_minus = sum(assemble_block_density(d, k, N)
                    for d in range(1, N, 2)) * (2 / N)
    effects = dense_block_effects(N, k)
    E_plus = sum(effects[0::2])
    E_minus = sum(effects[1::2])
    dense = verify_holevo([rho_plus, rho_minus], [0.5, 0.5],
                          [E_plus, E_minus])
    blockwise = lsb_povm(N, k).certify()
    assert dense.passed and blockwise.passed
    assert abs(dense.dominance_min_eigenvalue
               - blockwise.dominance_min_eigenvalue) < 1e-12


def test_report_lines_format():
    report = certify_dihedral_pgm(2, 1)
    lines = report.lines()
    assert len(lines) == 2
    assert "lagrangian-hermiticity" in lines[0] and "PASS" in lines[0]
    assert "dominance" in lines[1]

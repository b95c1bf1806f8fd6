"""Measurement construction and optimality certification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_pgm import (TRIVIAL, BlockLabel, LsbPovm, ScaleLimitError,
                          assemble_block_density, block_state,
                          certify_dihedral_pgm, completion_effect,
                          count_eta, dense_block_effects, enumerate_subsets,
                          gram_operator, lsb_povm, neumark_complete, pgm,
                          pgm_dense, povm_block, success_exact,
                          superposition_vector, verify_holevo, vtilde)
from dihedral_pgm.cli import main
from dihedral_pgm.subsetsum import _unrank_nondecreasing, count_eta_batch
from orbit_reference import _nondecreasing_blocks

#: Every oracle size the certifiers run at: (2N)^k <= 4096.
CERT_SIZES = [(N, k) for N in (2, 3, 4, 5, 6, 8) for k in range(1, 13)
              if (2 * N) ** k <= 4096]

#: Every size the dense builders and verify_holevo admit: (2N)^k <= 256.
HOLEVO_SIZES = [(N, k) for N, k in CERT_SIZES if (2 * N) ** k <= 256]


# ---------------------------------------------------------------------------
# the dense per-block oracle of the span-basis certifiers
# ---------------------------------------------------------------------------

def _pgm_ensemble(N, k, shift=0):
    """Dense (priors, states, effects) of one block of the N-outcome
    certificate: psi_d psi_d^dag with prior N^-(k+1), paired with
    e_(d+shift) e_(d+shift)^dag, all 2^k x 2^k."""
    def ensemble(label):
        priors = np.full(N, 1.0 / (N * float(N) ** k))
        sums = label.bit_dots
        phases = pgm._phases(N, sums)
        psi = phases / np.sqrt(2.0 ** k)  # rows of block_state
        # rows of povm_block, row j holding e_(j+shift)
        e = np.roll(phases, -shift, axis=0) / np.sqrt(N * label.eta[sums])
        return (priors, psi[:, :, None] * psi.conj()[:, None, :],
                e[:, :, None] * e.conj()[:, None, :])
    return ensemble


def _lsb_ensemble(povm):
    """Dense (priors, states, effects) of one block of the parity
    certificate: the even and odd shift mixtures and povm.block."""
    N, k = povm.N, povm.k

    def ensemble(label):
        weight = 2.0 / (N * float(N) ** k)  # 2/N a shift, N^-k a block
        psi = pgm._phases(N, label.bit_dots) / np.sqrt(2.0 ** k)
        states = [weight * s.T @ s.conj() for s in (psi[0::2], psi[1::2])]
        return (0.5, 0.5), states, povm.block(label)
    return ensemble


def _swap_lsb(patch):
    """Assign E- to the even shifts and E+ to the odd ones, in the span
    kernel (pair_effects) and in the dense oracle (block) alike."""
    block, pairs = LsbPovm.block, LsbPovm.pair_effects
    patch.setattr(LsbPovm, "block", lambda self, label: block(self, label)[::-1])
    patch.setattr(LsbPovm, "pair_effects",
                  lambda self, both: pairs(self, both)[::-1])


def _split_lsb(patch):
    """Replace E_+/- by the projectors onto the residues below N/2 and from
    N/2 up: L is then not Hermitian, so the kernel's residual scaling by
    1/sqrt(eta_h eta_(h+N/2)) is exercised."""
    def block(self, label):
        V = vtilde(label).rows
        low, high = V[:self.N // 2], V[self.N // 2:]
        return low.T @ low.conj(), high.T @ high.conj()

    def pairs(self, both):
        shape = both.shape + (2, 2)
        return (np.broadcast_to(np.diag([1.0, 0.0]), shape),
                np.broadcast_to(np.diag([0.0, 1.0]), shape))

    patch.setattr(LsbPovm, "block", block)
    patch.setattr(LsbPovm, "pair_effects", pairs)


def _full_walk(N, k, ensemble, tol):
    """Slow path: both dense conditions at every one of the N^k blocks."""
    residuals, doms = zip(*(
        pgm._conditions(*ensemble(BlockLabel.from_flat(X, N, k)))[1:]
        for X in range(N ** k)))
    return pgm.OptimalityReport(max(residuals), min(doms), tol)


# ---------------------------------------------------------------------------
# the per-block loops: the oracle of the dense builders
# ---------------------------------------------------------------------------

def _block_density_loop(shift, k, N):
    """assemble_block_density, one block_state outer product a block."""
    dim, blk = (2 * N) ** k, 2 ** k
    out = np.zeros((dim, dim), dtype=np.complex128)
    for X in range(N ** k):
        psi = block_state(BlockLabel.from_flat(X, N, k), shift).amplitudes
        out[X * blk:(X + 1) * blk, X * blk:(X + 1) * blk] = (
            np.outer(psi, psi.conj()) / N ** k)
    return out


def _block_effects_loop(N, k):
    """dense_block_effects, one povm_block effect a block and shift."""
    dim, blk = (2 * N) ** k, 2 ** k
    effects = [np.zeros((dim, dim), dtype=np.complex128) for _ in range(N)]
    for X in range(N ** k):
        block = povm_block(BlockLabel.from_flat(X, N, k))
        for j in range(N):
            effects[j][X * blk:(X + 1) * blk, X * blk:(X + 1) * blk] = \
                block.effect(j)
    return effects


@pytest.mark.parametrize("N,k", HOLEVO_SIZES)
def test_dense_builders_equal_the_per_block_loops(N, k):
    for shift in range(N):
        assert np.array_equal(assemble_block_density(shift, k, N),
                              _block_density_loop(shift, k, N))
    built = dense_block_effects(N, k)
    assert len(built) == N
    assert np.array_equal(np.stack(built), np.stack(_block_effects_loop(N, k)))
    dim = (2 * N) ** k
    assert np.array_equal(assemble_block_density(TRIVIAL, k, N),
                          np.eye(dim, dtype=np.complex128) / dim)


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


def test_gram_rank_guard_is_the_enumeration_guard():
    # N = 2: the zero label has support {0}, every other label {0, 1}
    assert gram_operator(2, 26).rank() == 2 ** 27 - 1
    for call in (lambda: gram_operator(2, 27).rank(),
                 lambda: success_exact(2, 27)):
        with pytest.raises(ScaleLimitError, match="enumeration guard"):
            call()


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
    from dihedral_pgm.pgm import _phases
    rng = np.random.default_rng(67)
    for _ in range(100):
        N = int(rng.integers(2, 9))
        k = int(rng.integers(1, 7))
        label = BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        slow = np.stack([block_state(label, d).amplitudes for d in range(N)])
        assert np.array_equal(_phases(N, label.bit_dots) / np.sqrt(2.0 ** k),
                              slow)


@pytest.mark.parametrize("shift", [0, 1, 3])
def test_certify_ensemble_is_block_states_and_povm_block(shift):
    # the dense oracle the span kernel is checked against is built from
    # block_state and povm_block
    for N, k in [(2, 3), (3, 2), (4, 2), (8, 1)]:
        ensemble = _pgm_ensemble(N, k, shift)
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


def _dihedral_cases(N, k):
    """(priors, states, effects) of the PGM, the shifted assignment and,
    for N even, the parity measurement, on the full dense space."""
    states = [assemble_block_density(d, k, N) for d in range(N)]
    effects = dense_block_effects(N, k)
    cases = [([1 / N] * N, states, effects),
             ([1 / N] * N, states, effects[1:] + effects[:1])]
    if N % 2 == 0:
        parity = [sum(states[s::2]) * (2 / N) for s in (0, 1)]
        cases.append(([0.5, 0.5], parity,
                      [sum(effects[0::2]), sum(effects[1::2])]))
    return cases


def _assert_matches_whole_matrix(report, priors, states, effects, scale):
    L, residual, dom = pgm._conditions(priors, states, effects)
    assert report.passed == (residual <= report.tolerance
                             and dom >= -report.tolerance)
    assert abs(report.hermiticity_residual - residual) <= scale
    assert abs(report.dominance_min_eigenvalue - dom) <= scale
    assert report.operator.shape == L.shape
    assert np.abs(report.operator - L).max() <= scale


@pytest.mark.parametrize("N,k", HOLEVO_SIZES)
def test_verify_holevo_dihedral_dense(N, k):
    # the block-partitioned oracle against _conditions on whole matrices
    scale = 1e-12 * float(N) ** -(k + 1)
    # the PGM and parity pass, the shifted assignment fails
    for (priors, states, effects), optimal in zip(_dihedral_cases(N, k),
                                                  (True, False, True)):
        report = verify_holevo(states, priors, effects)
        _assert_matches_whole_matrix(report, priors, states, effects, scale)
        assert report.passed == optimal


def test_diagonal_blocks_of_the_dihedral_ensemble():
    # the N^k blocks of 2^k that the construction is diagonal over
    N, k = 3, 2
    (_, states, effects), _ = _dihedral_cases(N, k)
    (rows,) = pgm._diagonal_blocks(states + effects)
    assert np.array_equal(rows, np.arange(N ** k * 2 ** k).reshape(-1, 2 ** k))


def _random_psd(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return A @ A.conj().T


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_verify_holevo_on_random_block_partitions(data):
    """Block-diagonal states and effects with random contiguous blocks:
    verify_holevo finds the blocks (or the merge that one coupling entry
    forces) and agrees with _conditions on the whole matrices."""
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    m = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    dim = sum(sizes)
    starts = np.cumsum([0] + sizes[:-1])
    states = np.zeros((m, dim, dim), dtype=np.complex128)
    effects = np.zeros_like(states)
    for start, n in zip(starts, sizes):
        blk = slice(start, start + n)
        grams = [_random_psd(rng, n) for _ in range(m)]
        w, U = np.linalg.eigh(sum(grams))
        R = (U / np.sqrt(w)) @ U.conj().T
        for i in range(m):
            states[i, blk, blk] = _random_psd(rng, n)
            effects[i, blk, blk] = R @ grams[i] @ R
    states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
    priors = rng.dirichlet(np.ones(m))
    expected = list(zip(starts, sizes))
    if len(sizes) > 1 and data.draw(st.booleans()):
        b = data.draw(st.integers(0, len(sizes) - 2))
        i = data.draw(st.integers(starts[b], starts[b + 1] - 1))
        j = data.draw(st.integers(starts[b + 1], starts[b + 1] + sizes[b + 1] - 1))
        if data.draw(st.booleans()):
            i, j = j, i
        states[data.draw(st.integers(0, m - 1)), i, j] = 0.01
        expected[b:b + 2] = [(starts[b], sizes[b] + sizes[b + 1])]
    found = sorted((int(r[0]), len(r)) for rows in
                   pgm._diagonal_blocks([*states, *effects]) for r in rows)
    assert found == expected
    report = verify_holevo(list(states), priors, list(effects))
    L = pgm._conditions(priors, states, effects)[0]
    scale = 1e-12 * max(np.abs(L).max(), 1.0 / dim)
    _assert_matches_whole_matrix(report, priors, states, effects, scale)
    # a negated effect block and a halved one are still caught
    b = data.draw(st.integers(0, len(sizes) - 1))
    idx = data.draw(st.integers(0, m - 1))
    blk = slice(starts[b], starts[b] + sizes[b])
    for factor, message in ((-1.0, f"effect {idx} is not positive semidefinite"),
                            (0.5, "resolve the support of the states")):
        bad = effects.copy()
        bad[idx, blk, blk] *= factor
        with pytest.raises(ValueError, match=message):
            verify_holevo(list(states), priors, list(bad))


def test_verify_holevo_permuted_assignment_fails():
    N, k = 4, 1
    states = [assemble_block_density(d, k, N) for d in range(N)]
    effects = dense_block_effects(N, k)
    permuted = effects[1:] + effects[:1]
    report = verify_holevo(states, [1 / N] * N, permuted)
    assert not report.passed
    assert report.dominance_min_eigenvalue < -1e-9


def test_verify_holevo_requires_a_state():
    with pytest.raises(ValueError, match="dimension mismatch"):
        verify_holevo([], [], [])


def test_verify_holevo_requires_one_square_shape():
    two, three = np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex) / 3
    with pytest.raises(ValueError, match="dimension mismatch"):
        verify_holevo([two, three], [0.5, 0.5], [np.eye(2), np.eye(3)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        verify_holevo([two], [1.0], [np.eye(3)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        verify_holevo([np.ones((2, 3))], [1.0], [np.ones((2, 3))])


def test_verify_holevo_rejects_bad_inputs():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        verify_holevo([zero, one], [0.5, 0.5], [zero, -one])
    with pytest.raises(ValueError, match="resolve the support of the states"):
        verify_holevo([zero, one], [0.5, 0.5], [zero, 0.5 * one])


def test_certify_matches_dense_verification():
    # every size verify_holevo's dense guard admits, (2N)^k <= 256: the
    # PGM, the shifted assignment and (N even) the parity measurement on
    # the full space
    for N, k in HOLEVO_SIZES:
        certs = [certify_dihedral_pgm(N, k),
                 certify_dihedral_pgm(N, k, assignment_shift=1)]
        if N % 2 == 0:
            certs.append(lsb_povm(N, k).certify())
        scale = 1e-12 * float(N) ** -(k + 1)
        for blockwise, (priors, states, effects) in zip(
                certs, _dihedral_cases(N, k), strict=True):
            dense = verify_holevo(states, priors, effects)
            assert blockwise.passed == dense.passed
            assert abs(blockwise.hermiticity_residual
                       - dense.hermiticity_residual) <= scale
            assert abs(blockwise.dominance_min_eigenvalue
                       - dense.dominance_min_eigenvalue) <= scale
        assert certs[0].passed and not certs[1].passed


@pytest.mark.parametrize("N,k", CERT_SIZES)
def test_certify_perturbed_fails_dominance(N, k):
    report = certify_dihedral_pgm(N, k, assignment_shift=1)
    assert not report.passed
    assert report.dominance_min_eigenvalue < -1e-9
    assert main(["verify", "--N", str(N), "--k", str(k), "--perturb"]) == 1
    assert main(["verify", "--N", str(N), "--k", str(k)]) == 0


@pytest.mark.parametrize("N,k", CERT_SIZES)
def test_orbit_walk_matches_full_walk(N, k, monkeypatch):
    """One block per S_k orbit, through the span-basis kernel, certifies
    all of Z_N^k: the certifiers' reports equal the dense oracle's walk
    over all N^k blocks."""
    scale = 1e-12 * float(N) ** -(k + 1)

    def check(orbit, ensemble):
        full = _full_walk(N, k, ensemble, orbit.tolerance)
        assert orbit.passed == full.passed
        assert abs(orbit.hermiticity_residual
                   - full.hermiticity_residual) <= scale
        assert abs(orbit.dominance_min_eigenvalue
                   - full.dominance_min_eigenvalue) <= scale

    check(certify_dihedral_pgm(N, k), _pgm_ensemble(N, k))
    check(certify_dihedral_pgm(N, k, assignment_shift=1),
          _pgm_ensemble(N, k, 1))
    if N % 2 == 0:
        check(lsb_povm(N, k).certify(), _lsb_ensemble(lsb_povm(N, k)))
        with monkeypatch.context() as m:
            _swap_lsb(m)
            check(lsb_povm(N, k).certify(), _lsb_ensemble(lsb_povm(N, k)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_block_conditions_are_invariant_under_permuting_x(data):
    # the dense oracle's conditions are the same on a whole S_k orbit,
    # which is what lets the certifiers walk one representative an orbit
    N, k = data.draw(st.sampled_from(CERT_SIZES))
    x = data.draw(st.lists(st.integers(0, N - 1), min_size=k, max_size=k))
    sigma = data.draw(st.permutations(range(k)))
    shift = data.draw(st.sampled_from((0, 1)))
    ensemble = _pgm_ensemble(N, k, shift)
    _, residual, dom = pgm._conditions(*ensemble(BlockLabel(x, N)))
    _, residual_p, dom_p = pgm._conditions(
        *ensemble(BlockLabel([x[i] for i in sigma], N)))
    assert abs(residual - residual_p) <= 1e-15
    assert abs(dom - dom_p) <= 1e-15


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_span_kernel_matches_dense_block_conditions(data):
    """Per block, the span kernel's residual and its one eigensolve's
    dominance equal the dense conditions over all N (or 2) eigensolves."""
    N, k = data.draw(st.sampled_from(CERT_SIZES))
    x = data.draw(st.lists(st.integers(0, N - 1), min_size=k, max_size=k))
    shift = data.draw(st.sampled_from((0, 1, 3)))
    label = BlockLabel(x, N)
    eta = count_eta_batch(np.array([x]), N)
    scale = 1e-12 * float(N) ** -(k + 1)
    cases = [(pgm._pgm_conditions(eta, N, k, shift)[0],
              _pgm_ensemble(N, k, shift))]
    if N % 2 == 0:
        cases.append((lsb_povm(N, k)._conditions(eta)[0],
                      _lsb_ensemble(lsb_povm(N, k))))
    for (residual, dom), ensemble in cases:
        _, dense_residual, dense_dom = pgm._conditions(*ensemble(label))
        assert abs(residual - dense_residual) <= scale
        assert abs(dom - dense_dom) <= scale
    for patch in (_swap_lsb, _split_lsb) if N % 2 == 0 else ():
        with pytest.MonkeyPatch.context() as m:
            patch(m)
            residual, dom = lsb_povm(N, k)._conditions(eta)[0]
            _, dense_residual, dense_dom = pgm._conditions(
                *_lsb_ensemble(lsb_povm(N, k))(label))
        assert abs(residual - dense_residual) <= scale
        assert abs(dom - dense_dom) <= scale


def test_span_kernel_spectrum_is_the_dense_spectrum():
    # off-span rows add no eigenvalue: a positive definite span block
    # keeps its own least eigenvalue ...
    M = np.zeros((1, 3, 3))
    M[0, :2, :2] = [[2.0, 1.0], [1.0, 2.0]]
    low = pgm._least_eigenvalues(M, np.array([[True, True, False]]))
    assert np.allclose(low, [1.0])
    # ... and the dense 2^k block adds zeros only where s < 2^k
    occupied = np.array([[True, False], [True, True]])
    assert pgm._with_complement(np.array([1.0, 1.0]), occupied, 1).tolist() \
        == [0.0, 1.0]


@pytest.mark.parametrize("N,k", [(1, 3), (2, 1), (2, 11), (3, 7), (5, 4),
                                 (8, 3), (64, 2)])
def test_unrank_gives_the_reference_row_at_every_position(N, k):
    # worst_block is unranked from the position of the least dominance
    reps = np.concatenate(list(_nondecreasing_blocks(N, k)))
    assert [_unrank_nondecreasing(i, N, k) for i in range(reps.shape[0])] \
        == [tuple(x) for x in reps.tolist()]


# (2,4) has four representatives tied at the least dominance
@pytest.mark.parametrize("N,k", [(4, 3), (2, 4)])
def test_worst_block_is_first_representative_of_least_dominance(N, k):
    report = certify_dihedral_pgm(N, k, assignment_shift=1)
    x = report.worst_block
    assert len(x) == k and list(x) == sorted(x)
    walk = np.concatenate(list(_nondecreasing_blocks(N, k)))
    doms = pgm._pgm_conditions(count_eta_batch(walk, N), N, k, 1)[:, 1]
    index = [tuple(r) for r in walk.tolist()].index(x)
    assert index == doms.tolist().index(doms.min())
    assert doms[index] == report.dominance_min_eigenvalue
    # the dense oracle agrees block by block, so x is a least block there too
    ensemble = _pgm_ensemble(N, k, 1)
    dense = np.array([pgm._conditions(*ensemble(BlockLabel(r, N)))[2]
                      for r in walk.tolist()])
    scale = 1e-12 * float(N) ** -(k + 1)
    assert np.abs(dense - doms).max() <= scale
    assert dense[index] - dense.min() <= scale
    zero = np.diag([1.0, 0.0]).astype(complex)
    assert verify_holevo([zero], [1.0], [zero]).worst_block is None


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
    # assigning E- to the even shifts and E+ to the odd ones must fail;
    # the swap goes through pair_effects, the effects the kernel reads
    pairs = LsbPovm.pair_effects
    monkeypatch.setattr(LsbPovm, "pair_effects",
                        lambda self, both: pairs(self, both)[::-1])
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
    # the certifiers read eta from count_eta_batch and build no table
    lsb_povm(4, 2).certify()
    certify_dihedral_pgm(4, 2, assignment_shift=1)
    assert calls == []
    label = BlockLabel((1, 3), 4)
    gram_operator(4, 2).block(label)
    neumark_complete(label)
    block_state(label, 3)
    enumerate_subsets(label, 1)
    superposition_vector(label, 1)
    assert len(calls) == 1
    assert not label.bit_dots.flags.writeable
    assert np.array_equal(label.bit_dots, table(label))
    assert not label.eta.flags.writeable
    assert np.array_equal(label.eta, count_eta(label).eta)


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

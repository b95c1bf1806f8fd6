"""The square-root measurement for dihedral hidden-subgroup states.

In the block basis the whole construction is block diagonal over
x in Z_N^k, and inside block x everything is spanned by the subset-sum
superpositions |S_p>.  The effect assigned to guess j is rank one,
E_j^x = e_j e_j^dag with e_j = sum_p omega^(jp) |S_p> / sqrt(N), the
Gram operator has the closed-form spectral blocks
(N / (2N)^k) sum_r eta_r |S_r><S_r|, and optimality reduces to two
checks per block: the weighted operator L = sum_i p_i rho_i E_i is
Hermitian and dominates every p_j rho_j.

Two paths run these checks.  _conditions is the dense oracle: it takes
explicit matrices, one each or stacked as diagonal blocks.  verify_holevo
partitions the full space into the finest contiguous diagonal blocks
that no state or effect couples (_diagonal_blocks, read from the exact
zeros of the inputs) and runs it once per block size on the stacked
blocks; everything it checks vanishes off those blocks, and the
spectrum is the union of the blocks' spectra.  The dense builders
dense_block_effects and assemble_block_density form all N^k blocks at
once and write them onto the diagonal in one assignment.  The
certifiers certify_dihedral_pgm and LsbPovm.certify run one span-basis
kernel instead (_span_conditions), which reads nothing but the counts
eta of each block.  In the orthonormal basis of the occupied |S_p>
(s <= min(N, 2^k) of them) the state for shift d has coordinates
omega^(dp) a_p with a_p = sqrt(eta_p / 2^k), and <psi_d|e_(d+shift)>
does not depend on d, so L is diagonal.  The N dominance operators are
conjugates of one another by diag(omega^(jp)), so one real symmetric
s x s eigensolve decides them all.  The dense 2^k block is V L V^dag
with V the isometry of the |S_p>, so its residual is the compressed one
over eta_p, and its spectrum is the compressed spectrum plus 2^k - s
zeros.  The parity (least-significant-bit) measurement sums the effects
over even and odd shifts, and sum_(d even) omega^(d(p-q)) vanishes
unless p = q mod N/2: on each pair (|S_h>, |S_(h+N/2)>) it is the
N-outcome measurement at N = 2, and it runs the same kernel on the
pairs.  _certify_blocks feeds the kernel one block per S_k orbit of
Z_N^k (the nondecreasing x, C(N+k-1, k) of them), reading the counts
block by block from the orbit walk of subsetsum (_orbit_walk from its
empty prefix), which extends each prefix's counts to its children:
permuting the coordinates of x permutes the bits of b, a relabelling of
the 2^k block basis, so every block on an orbit has the same residual
and spectrum.  The certifiers keep these orbits, not the exact means'
finer quotient by the units of Z_N and coordinate negations: the shifted
assignment of the negative control is not unit-invariant, and
worst_block is unranked from a position of this walk.  The Gram rank,
the number of occupied (x, p) pairs, is the one exact integer sum over
the exact means' walk: support sizes, weighted exactly
(success._exact_sums).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Unused here: perfbench/spans.py traces pgm.block_state, pgm.bit_dot_table.
from .dihedral import (BlockLabel, _bit_dots,  # noqa: F401
                       _block_diagonal, _block_labels, _check_dense, _guard,
                       bit_dot_table, block_state, phase_table)
# Unused here: perfbench/spans.py traces pgm.iter_all_eta.
from .subsetsum import (_orbit_walk, _unrank_nondecreasing,  # noqa: F401
                        count_eta_batch, iter_all_eta, vtilde)
from .success import _check_size, _gram_rank

#: Eigenvalues below this relative threshold count as zero in G^(-1/2).
PSEUDO_INVERSE_CUTOFF = 1e-10

#: Generic dense builders stay below this dimension.
PGM_DENSE_LIMIT = 256

#: Absolute tolerance of every optimality check: the residual may be at
#: most this, the least dominance eigenvalue no less than its negative,
#: and verify_holevo's effect and resolution checks hold to it.
CERT_TOL = 1e-9


# ---------------------------------------------------------------------------
# closed-form blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PovmBlock:
    """The N rank-one effect vectors of one block (E_j^x = e_j e_j^dag)."""

    label: BlockLabel
    effect_vectors: np.ndarray  # (N, 2^k) complex
    support_dim: int

    def effect(self, j: int) -> np.ndarray:
        e = self.effect_vectors[j % self.label.N]
        return np.outer(e, e.conj())

    def support_projector(self) -> np.ndarray:
        V = vtilde(self.label)
        return V.conj().T @ V


def _phases(N: int, sums: np.ndarray) -> np.ndarray:
    """The (..., N, 2^k) phase matrices omega^(j s_b), j = 0..N-1, of
    (..., 2^k) bit-dot sums s_b = b.x."""
    exps = (np.arange(N, dtype=np.int64)[:, None] * sums[..., None, :]) % N
    return phase_table(N)[exps]


def _effect_vectors(phases: np.ndarray, eta_at_sums: np.ndarray) -> np.ndarray:
    """e_j = phases_j / sqrt(N eta_(s_b)), for one block or a stack."""
    N = phases.shape[-2]
    return phases / np.sqrt(N * eta_at_sums)[..., None, :]


def povm_block(label: BlockLabel) -> PovmBlock:
    """Closed-form effect vectors e_j = sum_p omega^(jp) |S_p> / sqrt(N)."""
    sums = label.bit_dots
    vectors = _effect_vectors(_phases(label.N, sums), label.eta[sums])
    return PovmBlock(label, vectors, int(np.count_nonzero(label.eta)))


@dataclass
class GramOperator:
    """Block description of G = sum_j rho_j^(x k copies).

    Blocks are produced lazily from the closed form; the exact rank (the
    number of occupied (x, p) pairs) is summed in exact integers over one
    x per orbit of Z_N^k under coordinate permutations and the units of
    Z_N, which permute the residues and so keep every support size,
    behind the enumeration guard of the exact means.
    """

    N: int
    k: int

    def block(self, label: BlockLabel) -> np.ndarray:
        """(N / (2N)^k) sum_r eta_r |S_r><S_r| for one block."""
        V = vtilde(label)
        scale = self.N / float((2 * self.N) ** self.k)
        return scale * ((V.T * label.eta[None, :]) @ V.conj())

    def rank(self) -> int:
        """Number of occupied (x, p) pairs; equals the support dimension."""
        return _gram_rank(self.N, self.k)

    def trace(self) -> float:
        """tr G = N exactly (each of the N summands has unit trace)."""
        return float(self.N)


def gram_operator(N: int, k: int) -> GramOperator:
    return GramOperator(N, k)


# ---------------------------------------------------------------------------
# generic dense square of the construction
# ---------------------------------------------------------------------------

def pgm_dense(states: list[np.ndarray], priors) -> list[np.ndarray]:
    """Square-root measurement for explicit density matrices and priors.

    E_j = S^(-1/2) p_j rho_j S^(-1/2) with S = sum_i p_i rho_i and the
    inverse square root taken on the support of S (relative eigenvalue
    cutoff 1e-10).
    """
    priors = np.asarray(priors, dtype=np.float64)
    if len(states) != priors.size:
        raise ValueError("one prior per state required")
    if np.any(priors < 0) or abs(priors.sum() - 1) > 1e-12:
        raise ValueError("priors must be nonnegative and sum to 1")
    dims = {s.shape for s in states}
    if len(dims) != 1 or states[0].shape[0] != states[0].shape[1]:
        raise ValueError("dimension mismatch")
    _guard("dense dimension", states[0].shape[0], PGM_DENSE_LIMIT)
    S = sum(p * rho for p, rho in zip(priors, states))
    w, U = np.linalg.eigh(S)
    cutoff = PSEUDO_INVERSE_CUTOFF * max(w.max(), 0.0)
    inv_sqrt_w = np.where(w > cutoff, 1.0 / np.sqrt(np.maximum(w, cutoff)), 0.0)
    R = (U * inv_sqrt_w) @ U.conj().T
    return [R @ (p * rho) @ R for p, rho in zip(priors, states)]


# ---------------------------------------------------------------------------
# optimality certification
# ---------------------------------------------------------------------------

@dataclass
class OptimalityReport:
    """Result of checking the two minimum-error optimality conditions."""

    hermiticity_residual: float
    dominance_min_eigenvalue: float
    operator: np.ndarray | None = None  # sum_i p_i rho_i E_i when materialized
    worst_block: tuple[int, ...] | None = None  # block x of the least dominance

    def _verdicts(self) -> tuple[bool, bool]:
        return (self.hermiticity_residual <= CERT_TOL,
                self.dominance_min_eigenvalue >= -CERT_TOL)

    @property
    def passed(self) -> bool:
        return all(self._verdicts())

    def lines(self) -> list[str]:
        herm_ok, dom_ok = ("PASS" if ok else "FAIL" for ok in self._verdicts())
        return [f"lagrangian-hermiticity residual={self.hermiticity_residual:.3e} "
                f"tol={CERT_TOL:.1e} {herm_ok}",
                f"dominance min-eigenvalue={self.dominance_min_eigenvalue:.3e} "
                f"tol={CERT_TOL:.1e} {dom_ok}"]


def _adjoint(M: np.ndarray) -> np.ndarray:
    return np.swapaxes(M, -1, -2).conj()


def _conditions(priors, states, effects) -> tuple[np.ndarray, float, float]:
    """L = sum_i p_i rho_i E_i, max|L - L^dag| and min_j of the least
    eigenvalue of (L + L^dag)/2 - p_j rho_j, on dense matrices: the
    oracle the span-basis kernel is tested against.

    Each state and effect is one (n, n) matrix or a (B, n, n) stack of
    diagonal blocks (verify_holevo's size groups); the residual and the
    least eigenvalue are taken over all blocks.  Called on whole 2-D
    matrices it is the unpartitioned oracle the tests compare
    verify_holevo against."""
    L = sum(p * rho @ E for p, rho, E in zip(priors, states, effects))
    residual = float(np.abs(L - _adjoint(L)).max())
    Lh = (L + _adjoint(L)) / 2
    dom_min = min(float(np.linalg.eigvalsh(Lh - p * rho).min())
                  for p, rho in zip(priors, states))
    return L, residual, dom_min


def _certify_blocks(N: int, k: int, conditions) -> OptimalityReport:
    """Worst residual and dominance over Z_N^k, read from one nondecreasing x
    per S_k orbit.  Each block of the orbit walk (subsetsum._orbit_walk,
    behind the dense guard, which is tighter than the enumeration guard)
    goes, as its (rows, N) counts, to conditions(eta) before the walk
    moves on; conditions returns the block's (rows, 2) per-block
    residuals and least dominance eigenvalues, concatenated in walk
    order.  Nothing is built before the guard.

    A permutation of x permutes the bits of every b, which relabels the
    block basis and so conjugates the block's states, effects and L by one
    permutation matrix: residual and spectrum are the same on the orbit.
    worst_block is the first representative, in walk order, of the least
    dominance eigenvalue, unranked from its walk position.
    """
    _check_size(N, k)
    _check_dense(N, k)
    checks = np.concatenate([conditions(eta)
                             for _, _, _, eta in _orbit_walk(N, k)])
    worst = int(np.argmin(checks[:, 1]))
    return OptimalityReport(float(checks[:, 0].max()), float(checks[worst, 1]),
                            worst_block=_unrank_nondecreasing(worst, N, k))


def _diagonal_blocks(mats) -> list[np.ndarray]:
    """The finest partition of the index range into contiguous diagonal
    blocks that no matrix of mats couples, grouped by block size as
    (B, n) arrays of row indices.

    Two indices are coupled when some matrix holds an exact nonzero at
    (i, j) or (j, i).  A block ends after index i when no row up to i is
    coupled to a column beyond i.
    """
    coupled = np.zeros(mats[0].shape, dtype=bool)
    for m in mats:
        coupled |= m != 0
    coupled |= coupled.T
    dim = coupled.shape[0]
    idx = np.arange(dim)
    coupled[idx, idx] = True
    last = dim - 1 - np.argmax(coupled[:, ::-1], axis=1)
    ends = np.flatnonzero(np.maximum.accumulate(last) == idx)
    starts = np.concatenate([[0], ends[:-1] + 1])
    sizes = ends - starts + 1
    return [starts[sizes == n, None] + np.arange(n)
            for n in sorted(set(sizes.tolist()))]


def verify_holevo(states, priors, effects) -> OptimalityReport:
    """Check both optimality conditions on explicit dense matrices.

    The checks run block by block on the finest contiguous diagonal
    blocks that no state or effect couples (_diagonal_blocks), one
    batched pass per block size: L, the resolution sum_i E_i S and every
    L_h - p rho are sums and products of matrices with that zero pattern,
    so they vanish off the blocks, and a block-diagonal spectrum is the
    union of its blocks' spectra.  The report's operator is the dense L,
    scattered back from the blocks.

    Raises ValueError on no states or on states and effects that are not
    square of one shape ("dimension mismatch"), and names the violated
    property when the effects are not positive semidefinite or do not act
    as the identity on the support of the states.
    """
    priors = np.asarray(priors, dtype=np.float64)
    if not (len(states) == len(effects) == priors.size):
        raise ValueError("states, priors and effects must align")
    mats = [*states, *effects]
    shapes = {np.shape(m) for m in mats}
    shape = shapes.pop() if len(shapes) == 1 else ()
    if not states or len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
        raise ValueError("dimension mismatch")
    groups = _diagonal_blocks(mats)
    parts = [tuple([m[rows[:, :, None], rows[:, None, :]] for m in ms]
                   for ms in (states, effects)) for rows in groups]
    for idx in range(len(effects)):
        for _, part_effects in parts:
            E = part_effects[idx]
            herm = (E + _adjoint(E)) / 2
            if (np.abs(E - herm).max() > CERT_TOL
                    or np.linalg.eigvalsh(herm).min() < -CERT_TOL):
                raise ValueError(f"effect {idx} is not positive semidefinite")
    for part_states, part_effects in parts:
        S = sum(p * rho for p, rho in zip(priors, part_states))
        if np.abs(sum(part_effects) @ S - S).max() > CERT_TOL:
            raise ValueError("effects do not resolve the support of the states")
    checks = [_conditions(priors, *part) for part in parts]
    residual = max(c[1] for c in checks)
    dom_min = min(c[2] for c in checks)
    L = np.zeros(shape, dtype=np.result_type(*(c[0] for c in checks)))
    for rows, (L_blocks, _, _) in zip(groups, checks):
        L[rows[:, :, None], rows[:, None, :]] = L_blocks
    return OptimalityReport(residual, dom_min, L)


def _least_eigenvalues(M: np.ndarray, occupied: np.ndarray) -> np.ndarray:
    """Least eigenvalue of each real symmetric block of M, whose rows and
    columns off the span (occupied False) are zero: a diagonal 1, far
    above the block scale, decouples them from one batched eigvalsh."""
    M = M + np.where(occupied, 0.0, 1.0)[..., None] * np.eye(M.shape[-1])
    return np.linalg.eigvalsh(M)[..., 0]


def _with_complement(low: np.ndarray, occupied: np.ndarray, k: int) -> np.ndarray:
    """The dense 2^k block's least eigenvalue: the span's, or 0 when the
    span misses some of the 2^k dimensions (L and p rho vanish there)."""
    s = occupied.reshape(occupied.shape[0], -1).sum(axis=1)
    return np.where(s < 2 ** k, np.minimum(low, 0.0), low)


def _span_conditions(n: np.ndarray, k: int, prior: float,
                     phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of (rows, s) span-basis counts n, the residual
    max_p 2 |Im L_pp| / n_p and the least eigenvalue of
    diag(Re L) - prior a a^T on the occupied positions (n_p > 0).

    State d (weight `prior`) is psi_d = D_d a, a_p = sqrt(n_p / 2^k), and
    is paired with e_(d+shift) = D_(d+shift) 1 / sqrt(N), where
    D_j = diag(omega^(jp)) and phase_p = omega^(shift p).  So L is
    diagonal, L_pp = prior a_p conj(phase_p) sum_q a_q phase_q, and
    (L + L^dag)/2 - prior rho_j = D_j (diag(Re L) - prior a a^T) D_j^dag.
    """
    occupied = n > 0
    a = np.sqrt(n / 2.0 ** k)
    L = prior * a * phase.conj() * (a * phase).sum(axis=1, keepdims=True)
    residual = np.divide(2 * np.abs(L.imag), n, out=np.zeros_like(n),
                         where=occupied).max(axis=1)
    M = -prior * a[:, :, None] * a[:, None, :]
    M += L.real[:, :, None] * np.eye(n.shape[1])
    return residual, _least_eigenvalues(M, occupied)


def _pgm_conditions(eta: np.ndarray, N: int, k: int, shift: int) -> np.ndarray:
    """(residual, dominance) per block of the N-outcome certificate, where
    state d (prior N^-(k+1)) is paired with effect e_(d+shift): the span
    kernel on the residues p, occupied ones first in increasing order, cut
    to min(N, 2^k) columns, with phases omega^(shift p)."""
    p = np.argsort(eta == 0, axis=1, kind="stable")[:, :min(N, 2 ** k)]
    n = np.take_along_axis(eta, p, axis=1).astype(np.float64)
    residual, low = _span_conditions(n, k, 1.0 / (N * float(N) ** k),
                                     phase_table(N)[(shift * p) % N])
    return np.column_stack([residual, _with_complement(low, n > 0, k)])


def certify_dihedral_pgm(N: int, k: int,
                         assignment_shift: int = 0) -> OptimalityReport:
    """Blockwise optimality certificate for the N-outcome measurement:
    states psi_d psi_d^dag with prior 1/N times the block weight N^-k, and
    effects e_d e_d^dag.  A nonzero assignment_shift assigns effect
    E_(j+shift) to state j, a deliberately wrong measurement that must fail.
    Runs the span-basis kernel (_pgm_conditions) over the orbit walk.
    """
    return _certify_blocks(
        N, k, lambda eta: _pgm_conditions(eta, N, k, assignment_shift))


# ---------------------------------------------------------------------------
# parity (least significant bit) measurement
# ---------------------------------------------------------------------------

class LsbPovm:
    """Two-effect measurement for the parity of the hidden shift (N even).

    Per block, E_+/- = (1/2) sum_r (|S_r><S_r| +/- |S_r><S_(r+N/2)|); the
    two effects aggregate the N-outcome effects over even and odd shifts
    and sum to the block support projector.  On each pair
    (|S_h>, |S_(h+N/2)>) of the span basis this is the N-outcome
    measurement at N = 2, so certify runs the N-outcome span kernel on
    the pairs; block is the dense per-block oracle.
    """

    def __init__(self, N: int, k: int):
        if N % 2 != 0:
            raise ValueError("N must be even")
        self.N = N
        self.k = k

    def block(self, label: BlockLabel) -> tuple[np.ndarray, np.ndarray]:
        V = vtilde(label)
        half = np.roll(np.arange(self.N), -(self.N // 2))
        P = V.T @ V.conj()
        K = V.T @ V[half].conj()
        return (P + K) / 2, (P - K) / 2

    def _conditions(self, eta: np.ndarray, shift: int = 0) -> np.ndarray:
        """(residual, dominance) per block of the parity certificate,
        priors 1/2, with E_(j+shift) assigned to parity j (shift 1, E_-
        to the even shifts, is a control that must fail): the span kernel
        at N = 2, weight (1/2) N^-k, on the (rows N/2, 2) pairs
        (eta_h, eta_(h+N/2)), reduced by the max residual and the least
        eigenvalue over each block's pairs (an empty pair reads the
        decoupling 1, above every occupied one).  The N = 2 phases are
        taken real, exactly +/-1, so L is real.
        """
        N, k = self.N, self.k
        pairs = np.stack([eta[:, :N // 2], eta[:, N // 2:]], axis=2)
        residual, low = _span_conditions(
            pairs.reshape(-1, 2).astype(np.float64), k, 0.5 / float(N) ** k,
            phase_table(2)[[0, shift % 2]].real)
        rows = eta.shape[0]
        low = low.reshape(rows, -1).min(axis=1)
        return np.column_stack([residual.reshape(rows, -1).max(axis=1),
                                _with_complement(low, pairs > 0, k)])

    def certify(self) -> OptimalityReport:
        """Blockwise optimality check for the two parity states (even and
        odd shifts), by the span-basis kernel over the orbit walk."""
        return _certify_blocks(self.N, self.k, self._conditions)


def lsb_povm(N: int, k: int) -> LsbPovm:
    return LsbPovm(N, k)


# ---------------------------------------------------------------------------
# dense assemblies (oracle scale only)
# ---------------------------------------------------------------------------

def dense_block_effects(N: int, k: int) -> list[np.ndarray]:
    """All N effects assembled densely in the x-major block basis: the
    povm_block vectors of all N^k blocks formed at once, with the bit-dot
    sums of every label (_block_labels) and their counts from
    count_eta_batch, in povm_block's operations and order.  Guarded at
    (2N)^k <= PGM_DENSE_LIMIT, below the oracle scale DENSE_DIM_LIMIT."""
    _guard("dense dimension", (2 * N) ** k, PGM_DENSE_LIMIT)
    xs = _block_labels(N, k)
    sums = _bit_dots(xs, N)
    eta_at_sums = np.take_along_axis(count_eta_batch(xs, N), sums, axis=1)
    e = _effect_vectors(_phases(N, sums), eta_at_sums)
    return list(_block_diagonal(e[..., :, None] * e.conj()[..., None, :]))


def completion_effect(N: int, k: int) -> np.ndarray:
    """The aggregate leftover effect I - sum_j E_j (block basis, dense)."""
    effects = dense_block_effects(N, k)
    return np.eye(effects[0].shape[0], dtype=np.complex128) - sum(effects)

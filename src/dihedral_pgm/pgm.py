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
certifiers certify_dihedral_pgm and LsbPovm.certify run the span-basis
kernel instead, which reads nothing but the counts eta of each block.
In the orthonormal basis of the occupied |S_p> (s <= min(N, 2^k) of
them) the state for shift d has coordinates omega^(dp) a_p with
a_p = sqrt(eta_p / 2^k), and <psi_d|e_(d+shift)> does not depend on d,
so L is diagonal.  The N dominance operators are conjugates of one
another by diag(omega^(jp)), so one real symmetric s x s eigensolve
decides them all; for parity, sum_(d even) omega^(d(p-q)) vanishes
unless p = q mod N/2, so everything splits into 2 x 2 blocks pairing p
with p + N/2.  The dense 2^k block is V L V^dag with V the isometry of
the |S_p>, so its entrywise residual is the compressed one scaled by
1/sqrt(eta_p eta_q), and its spectrum is the compressed spectrum plus
2^k - s zeros.  _certify_blocks feeds the kernel one block per S_k orbit
of Z_N^k (the nondecreasing x, C(N+k-1, k) of them), counted by the one
guarded orbit walk of the exact means (success._all_eta), which extends
each prefix's counts to its children: permuting the coordinates of x
permutes the bits of b, a relabelling of the 2^k block basis, so every
block on an orbit has the same residual and spectrum.  The Gram rank,
the number of occupied (x, p) pairs, is an orbit-weighted sum of support
sizes over the same walk.

The parity (least-significant-bit) measurement lives here too: its two
effects per block pair each |S_r> with |S_(r+N/2)>, and aggregate the
per-shift effects over even and odd j.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Unused here: perfbench/spans.py traces pgm.block_state, pgm.bit_dot_table.
from .dihedral import (BlockLabel, ScaleLimitError,  # noqa: F401
                       _bit_dots, _block_diagonal, _block_labels,
                       _check_dense, bit_dot_table, block_state, phase_table)
# Unused here: perfbench/spans.py traces pgm.iter_all_eta.
from .subsetsum import (_unrank_nondecreasing, count_eta_batch,  # noqa: F401
                        iter_all_eta, vtilde)
from .success import _all_eta, _support_sizes

#: Eigenvalues below this relative threshold count as zero in G^(-1/2).
PSEUDO_INVERSE_CUTOFF = 1e-10

#: Generic dense builders stay below this dimension.
PGM_DENSE_LIMIT = 256


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
        V = vtilde(self.label).rows
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
    number of occupied (x, p) pairs) is summed over one x per S_k orbit
    of Z_N^k behind the enumeration guard of the exact means.
    """

    N: int
    k: int

    def block(self, label: BlockLabel) -> np.ndarray:
        """(N / (2N)^k) sum_r eta_r |S_r><S_r| for one block."""
        V = vtilde(label).rows
        scale = self.N / float((2 * self.N) ** self.k)
        return scale * ((V.T * label.eta[None, :]) @ V.conj())

    def rank(self) -> int:
        """Number of occupied (x, p) pairs; equals the support dimension."""
        return sum(int(w @ sizes) for w, sizes in _all_eta(
            self.N, self.k, lambda rows, eta: _support_sizes(eta)))

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
    dim = states[0].shape[0]
    if dim > PGM_DENSE_LIMIT:
        raise ScaleLimitError(f"dense dimension {dim} exceeds {PGM_DENSE_LIMIT}")
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
    tolerance: float
    operator: np.ndarray | None = None  # sum_i p_i rho_i E_i when materialized
    worst_block: tuple[int, ...] | None = None  # block x of the least dominance

    def _verdicts(self) -> tuple[bool, bool]:
        return (self.hermiticity_residual <= self.tolerance,
                self.dominance_min_eigenvalue >= -self.tolerance)

    @property
    def passed(self) -> bool:
        return all(self._verdicts())

    def lines(self) -> list[str]:
        herm_ok, dom_ok = ("PASS" if ok else "FAIL" for ok in self._verdicts())
        return [f"lagrangian-hermiticity residual={self.hermiticity_residual:.3e} "
                f"tol={self.tolerance:.1e} {herm_ok}",
                f"dominance min-eigenvalue={self.dominance_min_eigenvalue:.3e} "
                f"tol={self.tolerance:.1e} {dom_ok}"]


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


def _certify_blocks(N: int, k: int, conditions, tol: float) -> OptimalityReport:
    """Worst residual and dominance over Z_N^k, read from one nondecreasing x
    per S_k orbit.  The orbit walk of the exact means (success._all_eta)
    counts the representatives and hands each block's (rows, N) counts to
    conditions(eta), which returns the block's (rows, 2) per-block
    residuals and least dominance eigenvalues; nothing is built before
    the guard.

    A permutation of x permutes the bits of every b, which relabels the
    block basis and so conjugates the block's states, effects and L by one
    permutation matrix: residual and spectrum are the same on the orbit.
    worst_block is the first representative, in walk order, of the least
    dominance eigenvalue, unranked from its walk position.
    """
    _check_dense(N, k)
    checks = np.concatenate([c for _, c in _all_eta(
        N, k, lambda rows, eta: conditions(eta))])
    worst = int(np.argmin(checks[:, 1]))
    return OptimalityReport(float(checks[:, 0].max()), float(checks[worst, 1]),
                            tol, worst_block=_unrank_nondecreasing(worst, N, k))


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


def verify_holevo(states, priors, effects, tol: float = 1e-9) -> OptimalityReport:
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
            if (np.abs(E - herm).max() > tol
                    or np.linalg.eigvalsh(herm).min() < -tol):
                raise ValueError(f"effect {idx} is not positive semidefinite")
    for part_states, part_effects in parts:
        S = sum(p * rho for p, rho in zip(priors, part_states))
        if np.abs(sum(part_effects) @ S - S).max() > tol:
            raise ValueError("effects do not resolve the support of the states")
    checks = [_conditions(priors, *part) for part in parts]
    residual = max(c[1] for c in checks)
    dom_min = min(c[2] for c in checks)
    L = np.zeros(shape, dtype=np.result_type(*(c[0] for c in checks)))
    for rows, (L_blocks, _, _) in zip(groups, checks):
        L[rows[:, :, None], rows[:, None, :]] = L_blocks
    return OptimalityReport(residual, dom_min, tol, L)


def _span_first(occupied: np.ndarray, m: int) -> np.ndarray:
    """Per row, the indices of the occupied columns in increasing order,
    then of the empty ones, cut to the first m (m >= the most occupied)."""
    return np.argsort(~occupied, axis=1, kind="stable")[:, :m]


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


def _pgm_conditions(eta: np.ndarray, N: int, k: int, shift: int) -> np.ndarray:
    """(residual, dominance) per block of the N-outcome certificate, where
    state d (prior N^-(k+1)) is paired with effect e_(d+shift).

    In the span basis psi_d = D_d a and e_j = D_j 1 / sqrt(N), with
    D_j = diag(omega^(jp)), so L is diagonal,
    L_pp = N^-(k+1) a_p omega^(-shift p) sum_q a_q omega^(shift q), and
    (L + L^dag)/2 - p rho_j = D_j (diag(Re L) - N^-(k+1) a a^T) D_j^dag
    for every j: one real eigensolve a block.  The dense residual is
    max_p 2 |Im L_pp| / eta_p.
    """
    p = _span_first(eta > 0, min(N, 2 ** k))
    n = np.take_along_axis(eta, p, axis=1).astype(np.float64)
    occupied = n > 0
    a = np.sqrt(n / 2.0 ** k)
    prior = 1.0 / (N * float(N) ** k)
    phase = phase_table(N)[(shift * p) % N]
    L = prior * a * phase.conj() * (a * phase).sum(axis=1, keepdims=True)
    residual = np.divide(2 * np.abs(L.imag), n, out=np.zeros_like(n),
                         where=occupied).max(axis=1)
    M = -prior * a[:, :, None] * a[:, None, :]
    M += L.real[:, :, None] * np.eye(p.shape[1])
    low = _least_eigenvalues(M, occupied)
    return np.column_stack([residual, _with_complement(low, occupied, k)])


def certify_dihedral_pgm(N: int, k: int, tol: float = 1e-9,
                         assignment_shift: int = 0) -> OptimalityReport:
    """Blockwise optimality certificate for the N-outcome measurement:
    states psi_d psi_d^dag with prior 1/N times the block weight N^-k, and
    effects e_d e_d^dag.  A nonzero assignment_shift assigns effect
    E_(j+shift) to state j, a deliberately wrong measurement that must fail.
    Runs the span-basis kernel (_pgm_conditions) over the orbit walk.
    """
    return _certify_blocks(
        N, k, lambda eta: _pgm_conditions(eta, N, k, assignment_shift), tol)


# ---------------------------------------------------------------------------
# parity (least significant bit) measurement
# ---------------------------------------------------------------------------

class LsbPovm:
    """Two-effect measurement for the parity of the hidden shift (N even).

    Per block, E_+/- = (1/2) sum_r (|S_r><S_r| +/- |S_r><S_(r+N/2)|); the
    two effects aggregate the N-outcome effects over even and odd shifts
    and sum to the block support projector.
    """

    def __init__(self, N: int, k: int):
        if N % 2 != 0:
            raise ValueError("N must be even")
        self.N = N
        self.k = k

    def block(self, label: BlockLabel) -> tuple[np.ndarray, np.ndarray]:
        V = vtilde(label).rows
        half = np.roll(np.arange(self.N), -(self.N // 2))
        P = V.T @ V.conj()
        K = V.T @ V[half].conj()
        return (P + K) / 2, (P - K) / 2

    def pair_effects(self, both: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """E_+ and E_- on each pair (|S_h>, |S_(h+N/2)>) of the span basis,
        (..., 2, 2) each: (1/2)(I +/- J), with J swapping the pair where
        both is True (both residues occupied) and zero elsewhere."""
        J = both[..., None, None] * np.array([[0.0, 1.0], [1.0, 0.0]])
        return (np.eye(2) + J) / 2, (np.eye(2) - J) / 2

    def _conditions(self, eta: np.ndarray) -> np.ndarray:
        """(residual, dominance) per block of the two-state parity
        certificate, priors 1/2, in 2 x 2 blocks pairing h with h + N/2.

        On pair a = (a_h, a_(h+N/2)) the states are rho_+ = N^-k a a^T and
        rho_- = N^-k (Z a)(Z a)^T with Z = diag(1, -1), since
        sum_(d even) omega^(d(p-q)) = (N/2) [p = q mod N/2].  The dense
        residual entry is |L_01 - L_10| / sqrt(eta_h eta_(h+N/2)).
        """
        N, k = self.N, self.k
        pairs = np.stack([eta[:, :N // 2], eta[:, N // 2:]], axis=2)
        h = _span_first((pairs > 0).any(axis=2), min(N // 2, 2 ** k))
        n = np.take_along_axis(pairs, h[:, :, None], axis=1).astype(np.float64)
        occupied = n > 0
        a = np.sqrt(n / 2.0 ** k)
        states = [u[..., :, None] * u[..., None, :] / float(N) ** k
                  for u in (a, a * [1.0, -1.0])]
        effects = self.pair_effects(occupied.all(axis=2))
        L = sum(0.5 * rho @ E for rho, E in zip(states, effects))
        skew = np.abs(L[..., 0, 1] - L[..., 1, 0])
        scale = np.sqrt(n[..., 0] * n[..., 1])
        residual = np.divide(skew, scale, out=np.zeros_like(skew),
                             where=scale > 0).max(axis=1)
        Lh = (L + np.swapaxes(L, -1, -2)) / 2
        low = np.minimum(*(_least_eigenvalues(Lh - 0.5 * rho, occupied)
                           for rho in states)).min(axis=1)
        return np.column_stack([residual, _with_complement(low, occupied, k)])

    def certify(self, tol: float = 1e-9) -> OptimalityReport:
        """Blockwise optimality check for the two parity states (even and
        odd shifts), by the span-basis kernel over the orbit walk."""
        return _certify_blocks(self.N, self.k, self._conditions, tol)


def lsb_povm(N: int, k: int) -> LsbPovm:
    return LsbPovm(N, k)


# ---------------------------------------------------------------------------
# dense assemblies (oracle scale only)
# ---------------------------------------------------------------------------

def dense_block_effects(N: int, k: int) -> list[np.ndarray]:
    """All N effects assembled densely in the x-major block basis: the
    povm_block vectors of all N^k blocks formed at once, with the bit-dot
    sums of every label (_block_labels) and their counts from
    count_eta_batch, in povm_block's operations and order."""
    dim = _check_dense(N, k)
    if dim > PGM_DENSE_LIMIT:
        raise ScaleLimitError(f"dense dimension {dim} exceeds {PGM_DENSE_LIMIT}")
    xs = _block_labels(N, k)
    sums = _bit_dots(xs, N)
    eta_at_sums = np.take_along_axis(count_eta_batch(xs, N), sums, axis=1)
    e = _effect_vectors(_phases(N, sums), eta_at_sums)
    return list(_block_diagonal(e[..., :, None] * e.conj()[..., None, :]))


def completion_effect(N: int, k: int) -> np.ndarray:
    """The aggregate leftover effect I - sum_j E_j (block basis, dense)."""
    effects = dense_block_effects(N, k)
    return np.eye(effects[0].shape[0], dtype=np.complex128) - sum(effects)

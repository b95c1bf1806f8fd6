"""The square-root measurement for dihedral hidden-subgroup states.

In the block basis the whole construction is block diagonal over
x in Z_N^k, and inside block x everything is spanned by the subset-sum
superpositions |S_p>.  The effect assigned to guess j is rank one,
E_j^x = e_j e_j^dag with e_j = sum_p omega^(jp) |S_p> / sqrt(N), the
Gram operator has the closed-form spectral blocks
(N / (2N)^k) sum_r eta_r |S_r><S_r|, and optimality reduces to two
checks per block: the weighted operator sum_i p_i rho_i E_i is Hermitian
and dominates every p_j rho_j.  Both checks live in _conditions, run on
dense matrices by verify_holevo and, through _certify_blocks, on each
block's ensemble over all of Z_N^k by certify_dihedral_pgm and
LsbPovm.certify, the only path that scales to (2N)^k = 4096.

The parity (least-significant-bit) measurement lives here too: its two
effects per block pair each |S_r> with |S_(r+N/2)>, and aggregate the
per-shift effects over even and odd j.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Unused here: perfbench/spans.py traces pgm.block_state, pgm.bit_dot_table.
from .dihedral import (BlockLabel, ScaleLimitError, _check_dense,  # noqa: F401
                       bit_dot_table, block_state, phase_table)
from .subsetsum import iter_all_eta, vtilde

#: Eigenvalues below this relative threshold count as zero in G^(-1/2).
PSEUDO_INVERSE_CUTOFF = 1e-10

#: Generic dense builders stay below this dimension.
PGM_DENSE_LIMIT = 256

#: Exact Gram-rank enumeration guard.
GRAM_ENUM_LIMIT = 2 ** 22


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


def _block_phases(label: BlockLabel) -> tuple[np.ndarray, np.ndarray]:
    """The block's bit-dot sums s_b = b.x and the (N, 2^k) phase matrix
    omega^(j s_b), j = 0..N-1, shared by the effects and the shift states."""
    N = label.N
    sums = label.bit_dots
    exps = np.outer(np.arange(N, dtype=np.int64), sums) % N
    return sums, phase_table(N)[exps]


def povm_block(label: BlockLabel) -> PovmBlock:
    """Closed-form effect vectors e_j = sum_p omega^(jp) |S_p> / sqrt(N)."""
    sums, phases = _block_phases(label)
    eta = np.bincount(sums, minlength=label.N)
    vectors = phases / np.sqrt(label.N * eta[sums])
    return PovmBlock(label, vectors, int(np.count_nonzero(eta)))


@dataclass
class GramOperator:
    """Block description of G = sum_j rho_j^(x k copies).

    Blocks are produced lazily from the closed form; the exact rank (the
    number of occupied (x, p) pairs) is only enumerated under its guard.
    """

    N: int
    k: int
    _rank: int | None = field(default=None, repr=False)

    def block(self, label: BlockLabel) -> np.ndarray:
        """(N / (2N)^k) sum_r eta_r |S_r><S_r| for one block."""
        V = vtilde(label).rows
        eta = np.bincount(label.bit_dots, minlength=self.N).astype(np.float64)
        scale = self.N / float((2 * self.N) ** self.k)
        return scale * ((V.T * eta[None, :]) @ V.conj())

    def rank(self) -> int:
        """Number of occupied (x, p) pairs; equals the support dimension."""
        if self._rank is None:
            if self.N ** self.k > GRAM_ENUM_LIMIT:
                raise ScaleLimitError(
                    f"N^k = {self.N ** self.k} exceeds the eager rank guard")
            total = 0
            for _, eta in iter_all_eta(self.N, self.k):
                total += int(np.count_nonzero(eta, axis=1).sum())
            self._rank = total
        return self._rank

    def trace(self) -> float:
        """tr G = N exactly (each of the N summands has unit trace)."""
        return float(self.N)


def gram_operator(N: int, k: int) -> GramOperator:
    return GramOperator(N, k)


# ---------------------------------------------------------------------------
# generic dense square of the construction
# ---------------------------------------------------------------------------

def pgm_dense(states: list[np.ndarray], priors) -> list[np.ndarray]:
    """Square-root measurement for an explicit ensemble of density matrices.

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


def _conditions(priors, states, effects) -> tuple[np.ndarray, float, float]:
    """L = sum_i p_i rho_i E_i, max|L - L^dag| and min_j of the least
    eigenvalue of (L + L^dag)/2 - p_j rho_j.  The ensemble is walked one
    state at a time, so dense inputs are never stacked or reweighted."""
    L = sum(p * rho @ E for p, rho, E in zip(priors, states, effects))
    residual = float(np.abs(L - L.conj().T).max())
    Lh = (L + L.conj().T) / 2
    dom_min = min(float(np.linalg.eigvalsh(Lh - p * rho).min())
                  for p, rho in zip(priors, states))
    return L, residual, dom_min


def _certify_blocks(N: int, k: int, ensemble, tol: float) -> OptimalityReport:
    """Worst residual and dominance over the N^k blocks; ensemble(label), called
    only after the guard, gives one block's priors, states and effects."""
    _check_dense(N, k)
    labels = (BlockLabel.from_flat(X, N, k) for X in range(N ** k))
    residuals, doms = zip(*(_conditions(*ensemble(x))[1:] for x in labels))
    return OptimalityReport(max(residuals), min(doms), tol)


def verify_holevo(states, priors, effects, tol: float = 1e-9) -> OptimalityReport:
    """Check both optimality conditions on explicit dense matrices.

    Raises ValueError naming the violated property when the effects are
    not positive semidefinite or do not act as the identity on the
    support of the ensemble.
    """
    priors = np.asarray(priors, dtype=np.float64)
    if not (len(states) == len(effects) == priors.size):
        raise ValueError("states, priors and effects must align")
    for idx, E in enumerate(effects):
        herm = (E + E.conj().T) / 2
        if np.abs(E - herm).max() > tol or np.linalg.eigvalsh(herm).min() < -tol:
            raise ValueError(f"effect {idx} is not positive semidefinite")
    S = sum(p * rho for p, rho in zip(priors, states))
    resolved = sum(effects) @ S
    if np.abs(resolved - S).max() > tol:
        raise ValueError("effects do not resolve the ensemble support")
    L, residual, dom_min = _conditions(priors, states, effects)
    return OptimalityReport(residual, dom_min, tol, L)


def certify_dihedral_pgm(N: int, k: int, tol: float = 1e-9,
                         assignment_shift: int = 0) -> OptimalityReport:
    """Blockwise optimality certificate for the N-outcome measurement:
    states psi_d psi_d^dag with prior 1/N times the block weight N^-k, and
    effects e_d e_d^dag.  A nonzero assignment_shift assigns effect
    E_(j+shift) to state j, a deliberately wrong measurement that must fail.
    """
    def ensemble(label):
        priors = np.full(N, 1.0 / (N * float(N) ** k))
        sums, phases = _block_phases(label)
        eta = np.bincount(sums, minlength=N)
        psi = phases / np.sqrt(2.0 ** k)  # rows of block_state
        # rows of povm_block, row j holding e_(j+shift)
        e = np.roll(phases, -assignment_shift, axis=0) / np.sqrt(N * eta[sums])
        return (priors, psi[:, :, None] * psi.conj()[:, None, :],
                e[:, :, None] * e.conj()[:, None, :])

    return _certify_blocks(N, k, ensemble, tol)


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

    def certify(self, tol: float = 1e-9) -> OptimalityReport:
        """Blockwise optimality check for the two-state parity ensemble."""
        N, k = self.N, self.k

        def ensemble(label):
            weight = 2.0 / (N * float(N) ** k)  # 2/N a shift, N^-k a block
            psi = _block_phases(label)[1] / np.sqrt(2.0 ** k)
            states = [weight * s.T @ s.conj() for s in (psi[0::2], psi[1::2])]
            return (0.5, 0.5), states, self.block(label)

        return _certify_blocks(N, k, ensemble, tol)


def lsb_povm(N: int, k: int) -> LsbPovm:
    return LsbPovm(N, k)


# ---------------------------------------------------------------------------
# dense assemblies (oracle scale only)
# ---------------------------------------------------------------------------

def dense_block_effects(N: int, k: int) -> list[np.ndarray]:
    """All N effects assembled densely in the x-major block basis."""
    dim = _check_dense(N, k)
    if dim > PGM_DENSE_LIMIT:
        raise ScaleLimitError(f"dense dimension {dim} exceeds {PGM_DENSE_LIMIT}")
    blk = 2 ** k
    effects = [np.zeros((dim, dim), dtype=np.complex128) for _ in range(N)]
    for X in range(N ** k):
        block = povm_block(BlockLabel.from_flat(X, N, k))
        for j in range(N):
            effects[j][X * blk:(X + 1) * blk, X * blk:(X + 1) * blk] = \
                block.effect(j)
    return effects


def completion_effect(N: int, k: int) -> np.ndarray:
    """The aggregate leftover effect I - sum_j E_j (block basis, dense)."""
    effects = dense_block_effects(N, k)
    return np.eye(effects[0].shape[0], dtype=np.complex128) - sum(effects)

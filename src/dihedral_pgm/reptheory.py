"""Irreducible representations of the dihedral group and the measurement
procedure they induce.

The irreps of the order-2N dihedral group are one- and two-dimensional.
The two-dimensional ones, labeled 1 <= x <= ceil(N/2) - 1, act as

    s^k  ->  diag(omega^(xk), omega^(-xk))
    r s^k -> offdiag(omega^(-xk), omega^(xk))    (omega = exp(2 pi i / N))

and satisfy Gamma_(-x) = X Gamma_x X with X the bit flip.  There are two
one-dimensional irreps always (trivial, alternating) and two more when N
is even (even, odd).  The Fourier transform over the group maps the
group basis to (irrep, row, column) triples; conjugating the left
regular representation by it gives blocks Gamma_x (+) I.

Basis ordering is fixed here once: two-dimensional irreps by increasing
x with (row, column) pairs row-major, then trivial, alternating, even,
odd.  With this convention the hidden-subgroup state decomposes into a
classical mixture over irreps of a maximally mixed row factor and a
column state, and measuring the irrep label plus the row index -- with
row outcome 0 mapped to label N - x as-is and row outcome 1 mapped to
label x after a bit flip, the trivial/alternating pair pooled as label 0
via tau -> |+>, sigma -> |->, and the even/odd pair pooled as label N/2
the same way -- reproduces exactly the conditional-Fourier block
decomposition (label uniform on Z_N, column state
(|0> + omega^(label d) |1>) / sqrt(2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dihedral import (DihedralElement, _guard, _shift_permutation,
                       element_from_index, hidden_subgroup_state, inverse,
                       multiply, phase_table, subgroup_elements)

#: Bytes of one stack of shifted states in equivalence_check: every
#: shift of N <= 64 is transformed at once, and N = 512 one at a time.
STATE_STACK_BYTES = 2 ** 24

#: Tolerance of equivalence_check on the total variation of the label
#: probabilities and on each column state's trace distance.
EQUIVALENCE_TOL = 1e-9

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


@dataclass(frozen=True)
class IrrepLabel:
    """Label of one irrep: kind in {"two_dim", "trivial", "alternating",
    "even", "odd"}, with the integer index x for the two-dimensional ones."""

    kind: str
    x: int = 0

    @property
    def dimension(self) -> int:
        return 2 if self.kind == "two_dim" else 1


def irrep_labels(N: int) -> list[IrrepLabel]:
    """All irrep labels for half-order N, in the fixed basis order."""
    labels = [IrrepLabel("two_dim", x)
              for x in range(1, math.ceil(N / 2))]
    labels.append(IrrepLabel("trivial"))
    labels.append(IrrepLabel("alternating"))
    if N % 2 == 0:
        labels.append(IrrepLabel("even"))
        labels.append(IrrepLabel("odd"))
    return labels


def irrep(label: IrrepLabel, g: DihedralElement) -> np.ndarray:
    """Representation matrix of g in the given irrep."""
    N = g.N
    if label.kind == "two_dim":
        if not 1 <= label.x <= math.ceil(N / 2) - 1:
            raise ValueError(f"two_dim index {label.x} invalid for N={N}")
        table = phase_table(N)
        up = table[(label.x * g.k) % N]
        down = table[(-label.x * g.k) % N]
        if g.t == 0:
            return np.array([[up, 0], [0, down]])
        return np.array([[0, down], [up, 0]])
    if label.kind == "trivial":
        return np.array([[1.0 + 0j]])
    if label.kind == "alternating":
        return np.array([[-1.0 + 0j if g.t else 1.0 + 0j]])
    if label.kind in ("even", "odd"):
        if N % 2 != 0:
            raise ValueError(f"{label.kind} irrep requires even N")
        value = -1.0 if g.k % 2 else 1.0
        if label.kind == "odd" and g.t:
            value = -value
        return np.array([[value + 0j]])
    raise ValueError(f"unknown irrep kind {label.kind!r}")


def character(label: IrrepLabel, g: DihedralElement) -> complex:
    return complex(np.trace(irrep(label, g)))


# ---------------------------------------------------------------------------
# regular representations and the group Fourier transform
# ---------------------------------------------------------------------------

def left_regular(g: DihedralElement) -> np.ndarray:
    """Permutation matrix of h -> g h on the group basis."""
    N = g.N
    M = np.zeros((2 * N, 2 * N))
    for idx in range(2 * N):
        M[multiply(g, element_from_index(idx, N)).index, idx] = 1.0
    return M


def right_regular(g: DihedralElement) -> np.ndarray:
    """Permutation matrix of h -> h g^-1 on the group basis."""
    N = g.N
    ginv = inverse(g)
    M = np.zeros((2 * N, 2 * N))
    for idx in range(2 * N):
        M[multiply(element_from_index(idx, N), ginv).index, idx] = 1.0
    return M


@lru_cache(maxsize=None)
def qft_dihedral(N: int) -> np.ndarray:
    """Fourier transform over the group as a dense 2N x 2N unitary.

    Row (x, l, m) has entries sqrt(d_x / 2N) [Gamma_x(g)]_(l, m) over the
    group-basis columns g = r^t s^k (index t N + k); rows are ordered per
    the module convention.  Row orthonormality is Schur orthogonality.
    Built once per N and shared read-only.
    """
    _guard("QFT guard: 2N =", 2 * N, 1024)
    table = phase_table(N)
    ks = np.arange(N)
    Q = np.zeros((2 * N, 2 * N), dtype=np.complex128)
    row = 0
    for label in irrep_labels(N):
        if label.kind == "two_dim":
            scale = np.sqrt(2 / (2 * N))
            plus = table[(label.x * ks) % N]
            minus = table[(-label.x * ks) % N]
            Q[row, :N] = scale * plus            # (0,0): s^k -> omega^(xk)
            Q[row + 1, N:] = scale * minus       # (0,1): r s^k -> omega^(-xk)
            Q[row + 2, N:] = scale * plus        # (1,0): r s^k -> omega^(xk)
            Q[row + 3, :N] = scale * minus       # (1,1): s^k -> omega^(-xk)
            row += 4
        else:
            scale = np.sqrt(1 / (2 * N))
            signs = np.array([character(label, element_from_index(i, N))
                              for i in range(2 * N)])
            Q[row] = scale * signs
            row += 1
    Q.flags.writeable = False
    return Q


# ---------------------------------------------------------------------------
# hidden subgroup states in the irrep basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IrrepDecomposition:
    """Mixture over irreps: probabilities and (for p > 0) column states."""

    labels: list[IrrepLabel]
    probs: list[float]
    column_states: list[np.ndarray | None]


def hidden_state_in_irrep_basis(subgroup, N: int) -> IrrepDecomposition:
    """Decompose the hidden subgroup state after the group Fourier transform.

    Per irrep x the state contributes probability
    p(x) = (d_x / 2N) sum_h chi_x(h), a maximally mixed row factor, and
    the column state sum_h Gamma_x(h) / sum_h chi_x(h).  The conjugated
    dense matrix is checked block by block against this form (with the
    column factor entering conjugated, which is where this transform
    convention puts it).
    """
    rho = hidden_subgroup_state(subgroup, N)
    Q = qft_dihedral(N)
    M = Q @ rho @ Q.conj().T
    labels = irrep_labels(N)
    probs: list[float] = []
    columns: list[np.ndarray | None] = []
    offset = 0
    for label in labels:
        d = label.dimension
        span = d * d
        block = M[offset:offset + span, offset:offset + span]
        A = sum(irrep(label, h) for h in subgroup)
        chi_sum = np.trace(A)
        if abs(chi_sum.imag) > 1e-12:
            raise ValueError("internal consistency error: complex character sum")
        p = d * chi_sum.real / (2 * N)
        if p < -1e-12 or p > 1 + 1e-12:
            raise ValueError(f"internal consistency error: p(x) = {p}")
        expected = np.kron(np.eye(d) / d, A.conj()) * (d / (2 * N))
        if np.abs(block - expected).max() > 1e-12:
            raise ValueError("internal consistency error: block mismatch")
        probs.append(float(p))
        columns.append(A / chi_sum.real if p > 1e-12 else None)
        offset += span
    if abs(math.fsum(probs) - 1.0) > 1e-12:
        raise ValueError("internal consistency error: probabilities do not sum to 1")
    return IrrepDecomposition(labels, probs, columns)


# ---------------------------------------------------------------------------
# equivalence of the two measurement procedures
# ---------------------------------------------------------------------------

def _trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trace distance of each pair of a (..., n, n) stack, in one eigvalsh."""
    return np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1) / 2


def _label_blocks(N: int) -> tuple[np.ndarray, np.ndarray]:
    """For each label y in Z_N, the two rows of Q rho Q^dag whose 2 x 2
    block the irrep procedure hands to y, and whether that block pools
    two one-dimensional irreps (read in the Hadamard basis).  Row outcome
    0 of irrep x goes to label N - x as is; row outcome 1 goes to label
    x after the bit flip, which reverses its two rows."""
    rows = np.zeros((N, 2), dtype=np.int64)
    pooled = np.zeros(N, dtype=bool)
    one_dim = {}
    offset = 0
    for label in irrep_labels(N):
        if label.kind == "two_dim":
            rows[(N - label.x) % N] = offset, offset + 1
            rows[label.x] = offset + 3, offset + 2
        else:
            one_dim[label.kind] = offset
        offset += label.dimension ** 2
    rows[0] = one_dim["trivial"], one_dim["alternating"]
    pooled[0] = True
    if N % 2 == 0:
        rows[N // 2] = one_dim["even"], one_dim["odd"]
        pooled[N // 2] = True
    return rows, pooled


def equivalence_check(N: int, shifts) -> bool:
    """Run the irrep-basis procedure on hidden-shift states and compare
    its (label, column state) statistics with the conditional-Fourier
    block decomposition.

    shifts is an iterable of shifts d.  Returns True iff, for every
    shift, every label has probability 1/N and every column state
    matches (|0> + omega^(label d) |1>)/sqrt(2), to total-variation plus
    trace-distance EQUIVALENCE_TOL.  Only rho_0 is built; each shifted
    state is rho_0 with its group basis permuted (_shift_permutation),
    and the shifts are transformed and compared in stacks of at most
    STATE_STACK_BYTES.
    """
    shifts = np.fromiter(shifts, dtype=np.int64) % N
    Q = qft_dihedral(N)
    rho = hidden_subgroup_state(subgroup_elements("order2", N, d=0))
    rows, pooled = _label_blocks(N)
    table = phase_table(N)
    per_stack = max(1, STATE_STACK_BYTES // (16 * (2 * N) ** 2))
    for lo in range(0, shifts.size, per_stack):
        d = shifts[lo:lo + per_stack]
        q = np.stack([_shift_permutation(N, s) for s in d.tolist()])
        M = Q @ rho[q[:, :, None], q[:, None, :]] @ Q.conj().T
        blocks = M[:, rows[:, :, None], rows[:, None, :]]  # (shifts, N, 2, 2)
        blocks[:, pooled] = _HADAMARD @ blocks[:, pooled] @ _HADAMARD
        probs = np.trace(blocks, axis1=-2, axis2=-1).real
        if not (np.abs(probs - 1.0 / N).sum(axis=1) / 2
                <= EQUIVALENCE_TOL).all():
            return False
        phases = table[np.outer(d, np.arange(N)) % N]
        target = np.stack([np.ones_like(phases), phases], axis=-1) / np.sqrt(2)
        targets = target[..., :, None] * target.conj()[..., None, :]
        states = blocks / probs[..., None, None]
        if not (_trace_distances(states, targets) <= EQUIVALENCE_TOL).all():
            return False
    return True

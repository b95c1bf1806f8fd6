"""Subset-sum counting, enumeration, uniform sampling, and quantum-sampling maps.

A draw x in Z_N^k plays two roles at once: it is a subset-sum instance
(bit strings b select subsets, sums are taken mod N) and the label of a
block of the k-copy hidden-subgroup state.  eta_r counts the solutions
of b . x = r, |S_r> is the uniform superposition over them, and the
partial isometry sending |S_p> to |p> -- together with its deterministic
unitary completion -- is exactly the per-block measurement primitive:
running the completed unitary backwards quantum-samples from subset-sum
solutions.

Counting is exact integer dynamic programming; sampling walks the same
table backwards, so it is exactly uniform over solutions without ever
enumerating them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dihedral import (DENSE_DIM_LIMIT, BlockLabel, ScaleLimitError,
                       bit_dot_table)

#: int64 counting is exact up to 2^k <= 2^62.
BATCH_K_LIMIT = 62


@dataclass(frozen=True)
class SubsetProfile:
    """Solution counts eta_r for every residue r, for one draw x."""

    label: BlockLabel
    eta: tuple[int, ...]
    support_size: int


@dataclass(frozen=True)
class SubsetSumInstance:
    """Instance (x, t): find b with b . x = t mod N."""

    label: BlockLabel
    t: int

    def __post_init__(self):
        object.__setattr__(self, "t", int(self.t) % self.label.N)

    @property
    def is_legal(self) -> bool:
        return count_eta(self.label).eta[self.t] > 0


@dataclass(frozen=True)
class PartialIsometry:
    """Rows |S_p> of the map sum_p |p><S_p| (zero rows where eta_p = 0)."""

    label: BlockLabel
    rows: np.ndarray  # (N, 2^k) complex


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def count_eta(label: BlockLabel) -> SubsetProfile:
    """Exact solution counts by the O(kN) table recurrence
    T_j[r] = T_{j-1}[r] + T_{j-1}[r - x_j].

    Counts are Python integers, so there is no overflow for any k.
    """
    counts = _dp_rows(label)[-1]
    return SubsetProfile(label, tuple(counts), sum(c > 0 for c in counts))


def count_eta_batch(xs: np.ndarray, N: int) -> np.ndarray:
    """eta for many draws at once: xs is (S, k) integers, result (S, N) int64."""
    xs = np.asarray(xs)
    S, k = xs.shape
    if k > BATCH_K_LIMIT:
        raise ScaleLimitError(f"int64 counting overflows beyond k = {BATCH_K_LIMIT}")
    T = np.zeros((S, N), dtype=np.int64)
    T[:, 0] = 1
    r = np.arange(N, dtype=np.int64)
    rows = np.arange(0, S * N, N, dtype=np.int64)[:, None]
    # Both work tables are allocated once, so memory stays flat at three
    # (S, N) tables for the whole recurrence.
    idx = np.empty((S, N), dtype=np.int64)
    shifted = np.empty((S, N), dtype=np.int64)
    for j in range(k):
        # flat index of T[s, (r - x_j) mod N]
        np.subtract(r, xs[:, j:j + 1], out=idx)
        idx %= N
        idx += rows
        # idx is in range; "clip" writes straight into out, where the
        # default "raise" mode would buffer a fourth table
        np.take(T.reshape(-1), idx, out=shifted, mode="clip")
        T += shifted
    return T


def iter_all_eta(N: int, k: int, batch: int = 4096):
    """Yield (labels_chunk, eta_chunk) over all x in Z_N^k in lexicographic
    order, chunked; labels_chunk is an (S, k) digit array."""
    total = N ** k
    weights = N ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for lo in range(0, total, batch):
        flat = np.arange(lo, min(lo + batch, total), dtype=np.int64)
        digits = (flat[:, None] // weights[None, :]) % N
        yield digits, count_eta_batch(digits, N)


# ---------------------------------------------------------------------------
# enumeration and superpositions
# ---------------------------------------------------------------------------

def enumerate_subsets(label: BlockLabel, r: int) -> np.ndarray:
    """All b with b . x = r mod N, as increasing little-endian integers."""
    sums = bit_dot_table(label)
    return np.flatnonzero(sums == r % label.N).astype(np.int64)


def superposition_vector(label: BlockLabel, r: int) -> np.ndarray:
    """|S_r> as 2^k amplitudes; the zero vector when eta_r = 0."""
    sums = bit_dot_table(label)
    members = np.flatnonzero(sums == r % label.N)
    vec = np.zeros(2 ** label.k, dtype=np.complex128)
    if members.size:
        vec[members] = 1 / np.sqrt(members.size)
    return vec


def vtilde(label: BlockLabel) -> PartialIsometry:
    """The partial isometry sum_p |p><S_p| as an (N x 2^k) row stack."""
    sums = label.bit_dots
    eta = np.bincount(sums, minlength=label.N)
    rows = np.zeros((label.N, 2 ** label.k), dtype=np.complex128)
    cols = np.arange(2 ** label.k)
    rows[sums, cols] = 1 / np.sqrt(eta[sums])
    return PartialIsometry(label, rows)


# ---------------------------------------------------------------------------
# uniform sampling of solutions
# ---------------------------------------------------------------------------

def _dp_rows(label: BlockLabel) -> list[list[int]]:
    """Every row T_0 .. T_k of the counting table, as Python integers."""
    N = label.N
    rows = [[0] * N]
    rows[0][0] = 1
    for xj in label.x:
        prev = rows[-1]
        rows.append([prev[r] + prev[(r - xj) % N] for r in range(N)])
    return rows


def _randbelow(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) for arbitrary-precision n."""
    if n <= 2 ** 62:
        return int(rng.integers(n))
    nbytes = (n.bit_length() + 7) // 8
    shift = 8 * nbytes - n.bit_length()
    while True:
        v = int.from_bytes(rng.bytes(nbytes), "big") >> shift
        if v < n:
            return v


def sample_solution(inst: SubsetSumInstance, rng: np.random.Generator) -> int:
    """One exactly-uniform solution of a legal instance, by backtracking
    the counting table; O(kN) time, no enumeration.

    Raises ValueError("no solution") on illegal instances.
    """
    label = inst.label
    rows = _dp_rows(label)
    if rows[-1][inst.t] == 0:
        raise ValueError("no solution")
    b = 0
    r = inst.t
    for j in range(label.k, 0, -1):
        take = rows[j - 1][(r - label.x[j - 1]) % label.N]
        if _randbelow(rng, rows[j][r]) < take:
            b |= 1 << (j - 1)
            r = (r - label.x[j - 1]) % label.N
    return b


def sample_solutions(inst: SubsetSumInstance, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Vectorized batch of exactly-uniform solutions (int64 bit integers)."""
    label = inst.label
    if label.k > BATCH_K_LIMIT:
        raise ScaleLimitError(f"batched sampling needs k <= {BATCH_K_LIMIT}")
    table = np.array(_dp_rows(label), dtype=np.int64)  # (k+1, N)
    if table[-1][inst.t] == 0:
        raise ValueError("no solution")
    b = np.zeros(count, dtype=np.int64)
    r = np.full(count, inst.t, dtype=np.int64)
    for j in range(label.k, 0, -1):
        shifted = (r - label.x[j - 1]) % label.N
        take = table[j - 1][shifted]
        u = rng.integers(0, table[j][r])
        hit = u < take
        b |= hit.astype(np.int64) << (j - 1)
        r = np.where(hit, shifted, r)
    return b


# ---------------------------------------------------------------------------
# Neumark completion and quantum sampling
# ---------------------------------------------------------------------------

def neumark_complete(label: BlockLabel) -> np.ndarray:
    """Deterministic unitary completion of vtilde on N + 2^k dimensions.

    The first 2^k columns extend the isometry columns with the bottom
    block I - sum_p |1_{S_p}><1_{S_p}| / eta_p, which makes them exactly
    orthonormal while leaving the top-left N x 2^k block equal to vtilde.
    Completion column 2^k + p then holds |S_p> in the bottom summand when
    eta_p > 0 and the top basis vector |p> when eta_p = 0, pinning the
    illegal-sector images to fixed basis vectors.
    """
    N, k = label.N, label.k
    dim = N + 2 ** k
    if dim > DENSE_DIM_LIMIT:
        raise ScaleLimitError(f"dense dimension {dim} exceeds {DENSE_DIM_LIMIT}")
    sums = label.bit_dots
    eta = np.bincount(sums, minlength=N)
    V = vtilde(label).rows
    U = np.zeros((dim, dim), dtype=np.complex128)
    U[:N, :2 ** k] = V
    bottom = np.eye(2 ** k, dtype=np.complex128)
    for p in np.flatnonzero(eta):
        members = np.flatnonzero(sums == p)
        bottom[np.ix_(members, members)] -= 1.0 / eta[p]
    U[N:, :2 ** k] = bottom
    for p in range(N):
        col = 2 ** k + p
        if eta[p] > 0:
            U[N:, col] = V[p]
        else:
            U[p, col] = 1.0
    return U


def qsample(label: BlockLabel, p: int) -> np.ndarray:
    """Image of the padded basis state |p> under the reversed completion:
    the padded superposition |S_p> when eta_p > 0, else the deterministic
    completion state (basis vector 2^k + p)."""
    U = neumark_complete(label)
    return U[p % label.N].conj()


# ---------------------------------------------------------------------------
# text interface
# ---------------------------------------------------------------------------

def parse_instance(line: str) -> SubsetSumInstance:
    """Parse "N k t x_1 ... x_k" (decimal, space separated)."""
    parts = line.split()
    if len(parts) < 3:
        raise ValueError("expected 'N k t x_1 ... x_k'")
    try:
        N, k, t = int(parts[0]), int(parts[1]), int(parts[2])
        xs = [int(v) for v in parts[3:]]
    except ValueError:
        raise ValueError("non-integer field") from None
    if N < 1 or k < 1:
        raise ValueError("N and k must be positive")
    if len(xs) != k:
        raise ValueError(f"expected {k} entries, got {len(xs)}")
    if any(v < 0 or v >= N for v in xs):
        raise ValueError("entries must lie in [0, N)")
    return SubsetSumInstance(BlockLabel(tuple(xs), N), t % N)


def format_solution(b: int, k: int) -> str:
    """Bit string of length k with b_1 (the least significant bit) first."""
    return "".join("1" if (int(b) >> j) & 1 else "0" for j in range(k))

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
enumerating them.  The batched counter is one chunk pipeline: it counts
a chunk of draws whose work table fits in CHUNK_BYTES, hands the chunk
to a row-wise reducer while it is still in cache, and moves on, so no
(draws, N) table is ever held unless the caller asks for it (the
default reducer).  Work tables are the narrowest exact integer type
(int16 up to k = 14, int32 up to k = 30, int64 up to k = 62), and one
table serves every chunk of a call.  Each row of the table is doubled,
[T | T], so that no index is ever reduced mod N.  A chunk starts by
writing the histogram of the 2^m subset sums of its first m coordinates
into both halves at once; the sums are one float64 product with a table
of bit strings, exact while (m + 1) N <= 2^53.  Each of the remaining
k - m steps is then one broadcast add of the gathered window to both
halves, so the halves never need to be copied into each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Unused here: perfbench/spans.py traces subsetsum.bit_dot_table.
from .dihedral import (DENSE_DIM_LIMIT, BlockLabel, ScaleLimitError,  # noqa: F401
                       _bit_dots, bit_dot_table)

#: int64 counting is exact up to 2^k <= 2^62.
BATCH_K_LIMIT = 62

#: int32 work tables are exact up to 2^k <= 2^30.
INT32_K_LIMIT = 30

#: int16 work tables are exact up to 2^k <= 2^14.
INT16_K_LIMIT = 14

#: Cells (k+1) * N of the Python-integer counting table behind count_eta
#: and the samplers; one run at N = 2 * 10^6, k = 3 (8 * 10^6 cells)
#: peaked at 158 MB.
DP_TABLE_LIMIT = 2 ** 20

#: Bytes of one chunk's T in count_eta_batch.  The chunk's rows [T | T]
#: and the window gathered each step, 3x this, then stay cache-sized: at
#: N = 1024 a 4096-draw shard runs in 128-row int16 or 64-row int32
#: chunks.  Halving or doubling it was slower on a 2-vCPU machine, and
#: larger chunks raise the peak memory of small-N exact enumeration.
CHUNK_BYTES = 2 ** 18


def _prefix_width(N: int) -> int:
    """Coordinates m whose 2^m subset sums seed each counting chunk: the
    largest m with 2^m <= N / 16 from N = 256 on, and with 2^m <= N / 64
    below it.  The product and histogram of the sums cost about one dense
    step and save m of them.  Counting 4096 draws and reducing them to
    success values (best of 20, 2 vCPUs), no other width was faster at
    every k tried for N = 256, 1024 and 4096: N / 16 took 54.0 ms at
    (1024, 20) against 59.9 (N / 32) and 55.8 (N / 8), and 80.2 ms at
    (4096, 14) against 83.1 and 84.5, while N / 8 won by 0.6 ms at
    (256, 12) and by 2.1 ms at (4096, 20).  At N = 64 no width beat
    m = 0 by more than the noise (k = 8: m = 0 2.76 ms, m = 1 2.98,
    m = 2 2.79), and a prefix there raised the peak memory of small-N
    exact enumeration."""
    return max(0, N.bit_length() - (5 if N >= 256 else 7))


def _bit_table(m: int) -> np.ndarray:
    """The (m, 2^m) float64 table of bit strings b, column b holding the
    bits of b in little-endian order."""
    bits = (np.arange(2 ** m)[:, None] >> np.arange(m)) & 1
    return bits.T.astype(np.float64)


def _subset_sums(x: np.ndarray, N: int, bits: np.ndarray | None = None
                 ) -> np.ndarray:
    """The 2^m sums b . x mod N of each row of x, an (S, m) int64 array
    with entries in [0, N), as an (S, 2^m) int64 array in little-endian
    order of b.  While (m + 1) N <= 2^53 they are one float64 product s
    with bits (_bit_table(m), built here when None), reduced as
    s - N floor(s / N): the sums are integers below 2^53 - N, so s is
    exact, and fl(s / N) could round up to the next integer only if
    s + N > 2^53.  Beyond that bound, bit_dot_table's doubling
    (dihedral._bit_dots)."""
    m = x.shape[1]
    if (m + 1) * N > 2 ** 53:
        return _bit_dots(x, N)
    if bits is None:
        bits = _bit_table(m)
    s = x.astype(np.float64) @ bits
    s -= N * np.floor(s / N)
    return s.astype(np.int64)


def _widen(rows: slice, eta: np.ndarray) -> np.ndarray:
    """The identity reducer: a chunk's counts as int64."""
    return eta.astype(np.int64)


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


def count_eta_batch(xs: np.ndarray, N: int, reduce=None) -> np.ndarray:
    """eta for many draws at once, reduced row-wise chunk by chunk.

    xs is (S, k) integers.  The rows are counted in chunks of
    CHUNK_BYTES // (N * itemsize) draws on one work table, allocated once
    per call with its window view and overwritten by every chunk, and
    each chunk is handed to reduce(rows, eta_chunk) while it is still in
    cache: rows is the chunk's slice of xs and eta_chunk its (len, N)
    counts in the work dtype.  eta_chunk is a view of the work table, so
    it is valid only during that call: a reducer may return it or a view
    of it (the result is copied out before the next chunk), but must not
    keep it.  The per-row results are concatenated in row order.  The
    default reducer widens the chunk to int64, so count_eta_batch(xs, N)
    is the (S, N) int64 table.

    The work tables are int16 up to k = INT16_K_LIMIT, int32 up to
    k = INT32_K_LIMIT and int64 beyond (a count is at most 2^k).  Each
    row is kept doubled, [T | T], so T[(r - x_j) mod N] for every r is
    the contiguous slice starting at N - x_j, gathered with no modulo
    pass.  The table is viewed as (rows, 2, N), the two halves of each
    row.  A chunk starts from the histogram of the 2^m subset sums of its
    first m coordinates (m from _prefix_width(N), sums from _subset_sums
    as one float64 product with a bit table built once per call), written
    into both halves in one assignment.  Each of the remaining k - m
    steps of the recurrence gathers the windows and adds them to both
    halves in one broadcast add, which keeps them equal with no copy.
    """
    xs = np.asarray(xs)
    S, k = xs.shape
    if k > BATCH_K_LIMIT:
        raise ScaleLimitError(f"int64 counting overflows beyond k = {BATCH_K_LIMIT}")
    if reduce is None:
        reduce = _widen
    work = (np.int16 if k <= INT16_K_LIMIT else
            np.int32 if k <= INT32_K_LIMIT else np.int64)
    rows = max(1, CHUNK_BYTES // (N * np.dtype(work).itemsize))
    m = min(k, _prefix_width(N))
    n_max = min(rows, max(S, 1))
    bits = _bit_table(m)
    # one work table for every chunk: each chunk overwrites its rows
    table = np.empty((n_max, 2 * N), dtype=work)
    # windows[s, i] is the view table[s, i:i + N]
    windows = np.lib.stride_tricks.sliding_window_view(table, N, axis=1)
    out = None
    # one pass over an empty xs still gives the reducer's output shape
    for lo in range(0, max(S, 1), rows):
        x = xs[lo:lo + rows] % N
        n = x.shape[0]
        # the chunk's rows [T | T] as their two halves
        halves = table[:n].reshape(n, 2, N)
        if m:
            # one bincount over all rows: row s's sums land in s*N .. s*N+N-1
            flat = (_subset_sums(x[:, :m], N, bits)
                    + np.arange(0, n * N, N)[:, None])
            halves[...] = np.bincount(flat.ravel(),
                                      minlength=n * N).reshape(n, 1, N)
        else:
            halves[...] = 0
            halves[:, :, 0] = 1
        chunk_rows = np.arange(n)
        start = N - x  # in [1, N]
        for j in range(m, k):
            halves += windows[chunk_rows, start[:, j]][:, None, :]
        result = reduce(slice(lo, lo + n), halves[:, 0])
        if out is None:
            out = np.empty((S,) + result.shape[1:], dtype=result.dtype)
        out[lo:lo + n] = result
    return out


def iter_all_eta(N: int, k: int, batch: int = 4096):
    """Yield (labels_chunk, eta_chunk) over all x in Z_N^k in lexicographic
    order, chunked; labels_chunk is an (S, k) digit array.  Unguarded and
    N^k rows long: the slow path the orbit walk is tested against."""
    total = N ** k
    weights = N ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for lo in range(0, total, batch):
        flat = np.arange(lo, min(lo + batch, total), dtype=np.int64)
        digits = (flat[:, None] // weights[None, :]) % N
        yield digits, count_eta_batch(digits, N)


def _nondecreasing_blocks(N: int, k: int):
    """The nondecreasing x in Z_N^k in lexicographic order, one (S, k)
    block per leading digit."""
    for lead in range(N):
        rows = np.full((1, 1), lead, dtype=np.int64)
        for _ in range(k - 1):
            # append a column, each digit at least the one before it
            last = rows[:, -1]
            reps = N - last
            first = np.repeat(np.cumsum(reps) - reps, reps)
            digit = np.repeat(last, reps) + np.arange(first.size) - first
            rows = np.column_stack([np.repeat(rows, reps, axis=0), digit])
        yield rows


def _orbit_weights(xs: np.ndarray) -> np.ndarray:
    """Orbit sizes k!/prod_v m_v! of nondecreasing rows, built position by
    position as i!/prod c, so no factorial is ever formed."""
    w = np.ones(xs.shape[0], dtype=np.int64)
    run = np.ones(xs.shape[0], dtype=np.int64)
    for i in range(1, xs.shape[1]):
        # run: how many of x_1 .. x_(i+1) equal x_(i+1)
        run = np.where(xs[:, i] == xs[:, i - 1], run + 1, 1)
        w = w * (i + 1) // run
    return w


def _iter_orbit_eta(N: int, k: int, batch: int = 4096, reduce=None):
    """Yield (weights, reduced_chunk) over one x per orbit of Z_N^k under
    permutations of the coordinates (the nondecreasing x, in
    lexicographic order), at most `batch` rows a chunk; weights are the
    exact int64 orbit sizes, summing to N^k, and reduced_chunk is
    count_eta_batch(chunk, N, reduce), the (rows, N) int64 counts by
    default.  Permuting x leaves eta unchanged, so a weighted sum over
    these rows equals the sum over all of Z_N^k."""
    parts, held = [], 0
    for block in _nondecreasing_blocks(N, k):
        parts.append(block)
        held += block.shape[0]
        if held >= batch:
            rows = np.concatenate(parts)
            cut = held - held % batch
            parts, held = [rows[cut:]], held - cut
            for lo in range(0, cut, batch):
                chunk = rows[lo:lo + batch]
                yield _orbit_weights(chunk), count_eta_batch(chunk, N, reduce)
    if held:
        rows = np.concatenate(parts)
        yield _orbit_weights(rows), count_eta_batch(rows, N, reduce)


# ---------------------------------------------------------------------------
# enumeration and superpositions
# ---------------------------------------------------------------------------

def enumerate_subsets(label: BlockLabel, r: int) -> np.ndarray:
    """All b with b . x = r mod N, as increasing little-endian integers."""
    return np.flatnonzero(label.bit_dots == r % label.N).astype(np.int64)


def superposition_vector(label: BlockLabel, r: int) -> np.ndarray:
    """|S_r> as 2^k amplitudes; the zero vector when eta_r = 0."""
    members = np.flatnonzero(label.bit_dots == r % label.N)
    vec = np.zeros(2 ** label.k, dtype=np.complex128)
    if members.size:
        vec[members] = 1 / np.sqrt(members.size)
    return vec


def vtilde(label: BlockLabel) -> PartialIsometry:
    """The partial isometry sum_p |p><S_p| as an (N x 2^k) row stack."""
    sums = label.bit_dots
    rows = np.zeros((label.N, 2 ** label.k), dtype=np.complex128)
    cols = np.arange(2 ** label.k)
    rows[sums, cols] = 1 / np.sqrt(label.eta[sums])
    return PartialIsometry(label, rows)


# ---------------------------------------------------------------------------
# uniform sampling of solutions
# ---------------------------------------------------------------------------

def _dp_rows(label: BlockLabel) -> list[list[int]]:
    """Every row T_0 .. T_k of the counting table, as Python integers,
    guarded at DP_TABLE_LIMIT cells before any row is built."""
    N = label.N
    if (label.k + 1) * N > DP_TABLE_LIMIT:
        raise ScaleLimitError(
            f"counting table (k+1) * N = {(label.k + 1) * N} cells exceeds "
            f"the guard of {DP_TABLE_LIMIT}")
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
    sums, eta = label.bit_dots, label.eta
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

"""Subset-sum counting, enumeration, uniform sampling, and quantum-sampling maps.

A draw x in Z_N^k plays two roles at once: it is a subset-sum instance
(bit strings b select subsets, sums are taken mod N) and the label of a
block of the k-copy hidden-subgroup state.  eta_r counts the solutions
of b . x = r, |S_r> is the uniform superposition over them, and the
partial isometry sending |S_p> to |p> -- together with its deterministic
unitary completion -- is exactly the per-block measurement primitive:
running the completed unitary backwards quantum-samples from subset-sum
solutions.

Counting is exact integer dynamic programming.  For one x, count_eta
and the sampler share one (k+1, N) numpy table T_0 .. T_k, int64 up to
k = 62 and Python integers (dtype object) beyond; sample_solutions walks
it backwards for a whole batch of draws at once, so every draw is
exactly uniform over solutions, at any k, without ever enumerating
them.  The batched counter is one chunk pipeline: it counts a chunk of
draws whose work table fits in CHUNK_BYTES, hands the chunk to a
row-wise reducer while it is still in cache, and moves on, so no
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

Exact enumeration does not go through that counter.  It walks the
nondecreasing x (one per orbit of coordinate permutations) level by
level in lexicographic order: level j holds the doubled tables of a
cache-sized block of prefixes x_1 .. x_j, and each child's table is its
parent's plus one window of it, so the representatives that share a
prefix share all of its steps.  The orbit weights ride down the same
walk, and only the last level, undoubled, reaches the reducer.
"""

from __future__ import annotations

import math
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

#: Cells (k+1) * N of the counting table behind count_eta and
#: sample_solutions (_dp_rows).  At the guard an int64 table is 8 MB, and
#: count_eta peaked at 12.6 MB (tracemalloc, N = 2^18, k = 3) with the
#: Python integers of its last row; on the object table of k = 63
#: (N = 2^14) it peaked at 31.6 MB.
DP_TABLE_LIMIT = 2 ** 20

#: Bytes of one chunk's T in count_eta_batch.  The chunk's rows [T | T]
#: and the window gathered each step, 3x this, then stay cache-sized: at
#: N = 1024 a 4096-draw shard runs in 128-row int16 or 64-row int32
#: chunks.  Halving or doubling it was slower on a 2-vCPU machine, and
#: larger chunks raise the peak memory of small-N exact enumeration,
#: whose walk sizes each level's doubled tables to CHUNK_BYTES.
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
    m = 2 2.79)."""
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


def _work_dtype(k: int):
    """The narrowest integer type that holds every count of k coordinates
    (a count is at most 2^k)."""
    if k > BATCH_K_LIMIT:
        raise ScaleLimitError(f"int64 counting overflows beyond k = {BATCH_K_LIMIT}")
    return (np.int16 if k <= INT16_K_LIMIT else
            np.int32 if k <= INT32_K_LIMIT else np.int64)


def _chunk_rows(N: int, work) -> int:
    """Rows of N counts in the work dtype that fill CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // (N * np.dtype(work).itemsize))


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
    T_j[r] = T_{j-1}[r] + T_{j-1}[r - x_j] (the last row of _dp_rows).

    Counts are Python integers, so there is no overflow for any k.
    """
    counts = _dp_rows(label)[-1].tolist()
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
    work = _work_dtype(k)
    if reduce is None:
        reduce = _widen
    rows = _chunk_rows(N, work)
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


def _orbit_walk(N: int, k: int, rows: int, work):
    """Yield (weights, eta) blocks over the nondecreasing x in Z_N^k, in
    lexicographic order, at most `rows` rows a block: weights are the
    int64 orbit sizes and eta the (rows, N) counts in the work dtype, a
    view of a work table that is valid only until the next block.

    The walk goes depth first, level j holding a block of nondecreasing
    prefixes (x_1 .. x_j) with their doubled tables [T_j | T_j].  The
    children of a prefix ending in v append v .. N - 1, and
    T_(j+1)[r] = T_j[r] + T_j[r - x_(j+1)] is the prefix's half plus its
    window at N - x_(j+1), so every child costs one gather and one add
    (both halves at once) and shares its prefix's first j steps.  A
    child's orbit weight is its parent's times (j + 1) over the run of
    its last digit (how many of x_1 .. x_(j+1) equal it), exact in int64
    since the weight is an integer at every prefix.  Only the last level
    is undoubled; each level's table holds min(rows, its number of
    prefixes) rows."""
    # level j's table, j = 0 .. k: the root (the empty prefix) is one row
    tables = [np.empty((min(rows, math.comb(N + j - 1, j)),
                        (2 if j < k else 1) * N), dtype=work)
              for j in range(k + 1)]
    tables[0][0] = 0
    tables[0][0, [0, N]] = 1
    halves = [t.reshape(-1, 2, N) for t in tables[:k]]
    # windows[j][s, i] is the view tables[j][s, i:i + N]
    windows = [np.lib.stride_tricks.sliding_window_view(t, N, axis=1)
               for t in tables[:k]]
    # one frame per open level: its prefixes' last digits, runs of the
    # last digit and weights, the end of each prefix's range of children,
    # and the next child to make
    frames = []

    def push(last, run, weight):
        ends = np.cumsum(N - last)
        frames.append([last, run, weight, ends, ends - (N - last), 0])

    push(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
         np.ones(1, dtype=np.int64))
    while frames:
        last, run, weight, ends, starts, lo = frames[-1]
        total = int(ends[-1])
        if lo == total:
            frames.pop()
            continue
        hi = frames[-1][-1] = min(lo + rows, total)
        level = len(frames)  # of the children, 1 .. k
        child = np.arange(lo, hi)
        parent = np.searchsorted(ends, child, side="right")
        digit = last[parent] + (child - starts[parent])
        run_c = np.where(digit == last[parent], run[parent] + 1, 1)
        weight_c = weight[parent] * level // run_c
        # T_j[(r - x) mod N] for every r is the window starting at N - x
        window = windows[level - 1][parent, N - digit]
        if level == k:
            out = tables[k][:hi - lo]
            np.take(halves[k - 1][:, 0], parent, axis=0, out=out)
            out += window
            yield weight_c, out
        else:
            out = halves[level][:hi - lo]
            np.take(halves[level - 1], parent, axis=0, out=out)
            out += window[:, None, :]
            push(digit, run_c, weight_c)


def _iter_orbit_eta(N: int, k: int, batch: int = 4096, reduce=None):
    """Yield (weights, reduced_chunk) over one x per orbit of Z_N^k under
    permutations of the coordinates (the nondecreasing x, in
    lexicographic order), `batch` rows a chunk and the rest in the last;
    weights are the exact int64 orbit sizes, summing to N^k, and
    reduced_chunk holds reduce(rows, eta) per row, the (rows, N) int64
    counts by default.  Permuting x leaves eta unchanged, so a weighted
    sum over these rows equals the sum over all of Z_N^k.

    The counts come from the prefix-sharing walk (_orbit_walk) in the
    work dtype of count_eta_batch, in blocks of as many rows as fill
    CHUNK_BYTES with doubled tables, and each block goes to reduce while
    it is still in cache, rows being its slice of walk positions; like
    count_eta_batch's, eta is valid only during that call."""
    if reduce is None:
        reduce = _widen
    work = _work_dtype(k)
    remaining = math.comb(N + k - 1, k)
    pos = held = 0
    weights = out = None
    # a level's doubled tables [T | T] fill CHUNK_BYTES
    for w, eta in _orbit_walk(N, k, _chunk_rows(2 * N, work), work):
        n = w.shape[0]
        result = reduce(slice(pos, pos + n), eta)
        pos += n
        done = 0
        while done < n:
            if out is None:
                size = min(batch, remaining)
                weights = np.empty(size, dtype=np.int64)
                out = np.empty((size,) + result.shape[1:], dtype=result.dtype)
            take = min(n - done, out.shape[0] - held)
            weights[held:held + take] = w[done:done + take]
            out[held:held + take] = result[done:done + take]
            held += take
            done += take
            if held == out.shape[0]:
                yield weights, out
                remaining -= held
                held, out = 0, None


def _unrank_nondecreasing(index: int, N: int, k: int) -> tuple[int, ...]:
    """The nondecreasing x in Z_N^k at position `index` of the walk's
    lexicographic order: digit by digit, each smaller digit d skips its
    C(N - d + rest - 1, rest) completions of the rest positions."""
    x, d = [], 0
    for rest in range(k - 1, -1, -1):
        while index >= (skip := math.comb(N - d + rest - 1, rest)):
            index -= skip
            d += 1
        x.append(d)
    return tuple(x)


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

def _dp_rows(label: BlockLabel) -> np.ndarray:
    """The counting table T_0 .. T_k as one (k+1, N) array, by
    T_j[r] = T_{j-1}[r] + T_{j-1}[r - x_j]: int64 while k <= BATCH_K_LIMIT
    and Python integers (dtype object) beyond, so every count is exact.
    Guarded at DP_TABLE_LIMIT cells before it is allocated."""
    N, k = label.N, label.k
    if (k + 1) * N > DP_TABLE_LIMIT:
        raise ScaleLimitError(
            f"counting table (k+1) * N = {(k + 1) * N} cells exceeds "
            f"the guard of {DP_TABLE_LIMIT}")
    table = np.zeros((k + 1, N),
                     dtype=np.int64 if k <= BATCH_K_LIMIT else object)
    table[0, 0] = 1
    for j, xj in enumerate(label.x, start=1):
        # np.roll(T, x)[r] = T[(r - x) mod N]
        table[j] = table[j - 1] + np.roll(table[j - 1], xj)
    return table


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


def sample_solutions(inst: SubsetSumInstance, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """`count` exactly-uniform solutions of a legal instance, by
    backtracking the counting table; O(kN + k count) time, no enumeration.
    Solutions are bit integers b (b_1 the least significant bit): int64
    while k <= BATCH_K_LIMIT, and Python integers (dtype object) beyond,
    drawn with _randbelow from the exact counts.

    Raises ValueError("no solution") on illegal instances.
    """
    label = inst.label
    table = _dp_rows(label)  # (k+1, N)
    if table[-1][inst.t] == 0:
        raise ValueError("no solution")
    b = np.zeros(count, dtype=table.dtype)
    r = np.full(count, inst.t, dtype=np.int64)
    for j in range(label.k, 0, -1):
        shifted = (r - label.x[j - 1]) % label.N
        take = table[j - 1][shifted]
        if table.dtype == object:
            u = np.array([_randbelow(rng, n) for n in table[j][r]],
                         dtype=object)
        else:
            u = rng.integers(0, table[j][r])
        hit = u < take
        b |= hit.astype(table.dtype) << (j - 1)
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

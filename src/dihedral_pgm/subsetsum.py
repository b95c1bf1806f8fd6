"""Subset-sum counting, enumeration, uniform sampling, and quantum-sampling maps.

A draw x in Z_N^k plays two roles at once: it is a subset-sum instance
(bit strings b select subsets, sums are taken mod N) and the label of a
block of the k-copy hidden-subgroup state.  eta_r counts the solutions
of b . x = r, |S_r> is the uniform superposition over them, and the
partial isometry sending |S_p> to |p> -- together with its deterministic
unitary completion -- is exactly the per-block measurement primitive:
running the completed unitary backwards quantum-samples from subset-sum
solutions.

Counting is exact integer dynamic programming.  For one x, count_eta and
the sampler share the rows T_0 .. T_k of one counting table, int64
through row 62 and Python integers (dtype object) in the rows beyond (a
count after j coordinates is at most 2^j); sample_solutions walks it
backwards for a whole batch of draws at once, so every draw is exactly
uniform over solutions, at any k, without ever enumerating them.  The
batched counter is one chunk pipeline: it counts a chunk of draws whose
work table fits in CHUNK_BYTES, hands the chunk to a row-wise reducer in
blocks while it is still in cache, and moves on, so no (draws, N) table
is ever held unless the caller asks for it (the default reducer).  Its
work tables are the narrowest exact integer type (_work_dtype: int16 up
to k = 14, int32 up to k = 30, int64 up to k = 62), except where k > 14
and the mean count 2^k / N is at most UINT16_MEAN_LIMIT: there it counts
in uint16, modulo 2^16 (_batch_dtype).  A count reduced mod 2^16 is at
most the count, and equal to it exactly when the count is below 2^16,
and the counts of a row sum to 2^k; so a row is exact exactly when its
int64 row sum is 2^k.  Every block is checked so before its reducer sees
it, and the rows that fail are counted again at the exact type, in which
the block is then handed on.  One table serves every chunk of a call.
A caller may ask for two narrower tables instead (its `table`): uint8,
which counts modulo 2^8 with no check, each count then the true count
mod 256 and so a lower bound on it; and bool, which keeps only which
residues are reached, each step's add an OR.
Each row of the table is doubled, [T | T], so that no index is ever
reduced mod N.  A chunk starts by writing the histogram of the 2^m
subset sums of its first m coordinates into both halves at once (on a
bool table, True at each sum, with no histogram); the
sums are one float64 product with a table of bit strings, exact while
(m + 1) N <= 2^53.  Each of the remaining k - m steps is then one
broadcast add of the gathered window to both halves, so the halves never
need to be copied into each other.  Every temporary is sized by its own
dtype: the int64 histograms and the blocks handed to the reducer, which
a value kernel copies to float64, are CHUNK_BYTES // (8 N) rows
(_block_rows), and m is capped so that the bit table fits CHUNK_BYTES.
So the bytes a call holds do not grow with the number of draws, and
_count_bytes adds them up for the Monte Carlo memory guard.

Exact enumeration does not go through that counter.  One walk,
_orbit_walk, visits one x per orbit of a symmetry of Z_N^k level by
level from a set of roots: level j holds the doubled tables of a
cache-sized block of prefixes, and each child's table is its parent's
plus one window of it, so the representatives that share a prefix share
all of its steps.  From the empty prefix it walks the nondecreasing x,
one per orbit of coordinate permutations (S_k); from the roots of
_unit_roots, one per divisor g of N, it walks one x per orbit of S_k,
the units of Z_N and coordinate negations, which shift eta cyclically.
Its digits are the classes {c, -c}, c = 0 .. N // 2, each use of a
two-element class standing for 2 labels: 784 representatives in place
of 45,760 at N = 64, k = 3, and 246 in place of 3,432 at N = 8, k = 7.
The weights and distinct counts ride down the same walk, and the
walk yields (depth, weights, distinct, counts) blocks, the last level
undoubled, which each exact pass reduces itself while they are still
in cache.  A walk to depth k passes through every shallower depth with
that depth's own rows, weights and distinct counts, in the same order,
so on request it yields every depth's blocks as well: one walk serves
every k of an exact sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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

#: Past INT16_K_LIMIT, count_eta_batch counts in uint16 modulo 2^16 where
#: the mean count 2^k / N is at most this, and certifies each row by its
#: sum (_batch_dtype).  A row fails only if some count reaches 2^16, 16
#: times this mean: the largest count of 4096 uniform draws at N = 1024,
#: k = 20 was 1,488 to 1,708 over three seeds.  Where the mean is larger,
#: as at (2, 26) or (2^16, 62), rows would fail and be counted twice, so
#: the exact type is used.
UINT16_MEAN_LIMIT = 2 ** 12

#: Cells (k+1) * N of the counting table behind count_eta and
#: sample_solutions (_dp_rows).  At the guard an int64 table is 8 MB, and
#: count_eta peaked at 12.0 MB (tracemalloc, N = 2^18, k = 3) with the
#: Python integers of its last row; at k = 63 (N = 2^14), whose last row
#: alone holds Python integers, it peaked at 9.3 MB.
DP_TABLE_LIMIT = 2 ** 20

#: Bytes of one chunk's T in count_eta_batch, and of each of its other
#: temporaries.  The chunk's rows [T | T] and the window gathered each
#: step, 3x this, then stay cache-sized, and so do the int64 histogram
#: that seeds a block of rows and the float64 copy of a block that a
#: value kernel makes, each at most this (_block_rows): at N = 1024 a
#: 4096-draw shard runs in 128-row int16 or 64-row int32 chunks, each
#: handed to its reducer in 32-row blocks.  Halving or doubling it was
#: slower on a 2-vCPU machine, and larger chunks raise the peak memory of
#: small-N exact enumeration, whose walk sizes each level's doubled
#: tables to CHUNK_BYTES.
CHUNK_BYTES = 2 ** 18


def _prefix_width(N: int) -> int:
    """Coordinates m whose 2^m subset sums seed each counting chunk: the
    largest m with 2^m <= N / 16 from N = 256 on, and with 2^m <= N / 64
    below it, capped so that the bit table, m 2^m float64s, fits
    CHUNK_BYTES (m <= 11 at the default, from N = 2^16 on).  The product
    and histogram of the sums cost about one dense step and save m of
    them.  Counting 4096 draws and reducing them to success values (best
    of 20, 2 vCPUs), no other width was faster at every k tried for
    N = 256, 1024 and 4096: N / 16 took 54.0 ms at (1024, 20) against
    59.9 (N / 32) and 55.8 (N / 8), and 80.2 ms at (4096, 14) against
    83.1 and 84.5, while N / 8 won by 0.6 ms at (256, 12) and by 2.1 ms
    at (4096, 20).  At N = 64 no width beat m = 0 by more than the noise
    (k = 8: m = 0 2.76 ms, m = 1 2.98, m = 2 2.79)."""
    m = max(0, N.bit_length() - (5 if N >= 256 else 7))
    while m and m * 2 ** m * 8 > CHUNK_BYTES:
        m -= 1
    return m


def _bit_table(m: int) -> np.ndarray:
    """The (m, 2^m) float64 table of bit strings b, column b holding the
    bits of b in little-endian order."""
    bits = (np.arange(2 ** m)[:, None] >> np.arange(m)) & 1
    return bits.T.astype(np.float64)


def _subset_sums(x: np.ndarray, N: int, bits: np.ndarray) -> np.ndarray:
    """The 2^m sums b . x mod N of each row of x, an (S, m) int64 array
    with entries in [0, N), as an (S, 2^m) int64 array in little-endian
    order of b.  While (m + 1) N <= 2^53 they are one float64 product s
    with bits (_bit_table(m)), reduced as
    s - N floor(s / N): the sums are integers below 2^53 - N, so s is
    exact, and fl(s / N) could round up to the next integer only if
    s + N > 2^53.  Beyond that bound, bit_dot_table's doubling
    (dihedral._bit_dots)."""
    m = x.shape[1]
    if (m + 1) * N > 2 ** 53:
        return _bit_dots(x, N)
    s = x.astype(np.float64) @ bits
    s -= N * np.floor(s / N)
    return s.astype(np.int64)


def _label_dtype(N: int):
    """The narrowest signed integer type that holds N itself (int8 up to
    N = 127, int16 up to 32767), so that count_eta_batch's N - x of a
    label x in [0, N) stays in range."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if N <= np.iinfo(t).max)


def _work_dtype(k: int):
    """The narrowest integer type that holds every count of k coordinates
    (a count is at most 2^k)."""
    if k > BATCH_K_LIMIT:
        raise ScaleLimitError(f"int64 counting overflows beyond k = {BATCH_K_LIMIT}")
    return (np.int16 if k <= INT16_K_LIMIT else
            np.int32 if k <= INT32_K_LIMIT else np.int64)


def _batch_dtype(N: int, k: int):
    """The type count_eta_batch counts in: uint16, modulo 2^16, where
    k > INT16_K_LIMIT and 2^k / N <= UINT16_MEAN_LIMIT, and the exact
    _work_dtype(k) elsewhere."""
    work = _work_dtype(k)
    if k > INT16_K_LIMIT and 2 ** k <= UINT16_MEAN_LIMIT * N:
        return np.uint16
    return work


def _table_types(N: int, k: int, table=None) -> tuple:
    """The (work, exact) types of count_eta_batch's table for k
    coordinates mod N: _batch_dtype(N, k) and _work_dtype(k) when table is
    None, the two differing only on a uint16 table, whose rows are
    certified and counted again at the exact type; the type `table` for
    both otherwise.  Raises ScaleLimitError beyond k = BATCH_K_LIMIT."""
    work, exact = _batch_dtype(N, k), _work_dtype(k)
    return (work, exact) if table is None else (np.dtype(table),) * 2


def _chunk_rows(N: int, work) -> int:
    """Rows of N counts in the work dtype that fill CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // (N * np.dtype(work).itemsize))


def _block_rows(N: int) -> int:
    """Rows of N int64 or float64 values that fill CHUNK_BYTES: the rows
    of one prefix histogram and of one block handed to a reducer."""
    return max(1, CHUNK_BYTES // (8 * N))


def _count_bytes(S: int, N: int, k: int, table=None) -> int:
    """The bytes count_eta_batch holds for S rows of k coordinates mod N,
    beyond xs and its output, on the work table of `table`
    (count_eta_batch): a chunk's reduced and negated coordinates, at the
    width of N (_label_dtype); its doubled work table and the window
    gathered each step, both of min(S, chunk) rows in the work type of
    _table_types (a uint8 or bool chunk has twice the rows of an int16
    one in the same table bytes, and so twice its coordinates and subset
    sums); the int64 histogram of a block, which also bounds the float64
    copy a value kernel makes of its block; the bit table, and a chunk's
    subset sums with the two temporaries _subset_sums makes of them (a
    bool table is seeded from the sums in place, with no histogram, and
    the block term stays for it as the bound on its reducer's block);
    and three numpy casting buffers of np.getbufsize() float64 values,
    which a cast of a large operand holds.  Where the work type is not
    the exact one (a uint16 table) the certificate adds the int64 row
    sums of a block and a block widened to the exact type, which a block
    holds while its failed rows are counted again and its reducer runs;
    the np.roll row of that count is no larger than the histogram of the
    block, which is not held then.  Raises
    ScaleLimitError beyond k = BATCH_K_LIMIT, as the call would."""
    work, exact = _table_types(N, k, table)
    n = min(_chunk_rows(N, work), max(S, 1))
    block = min(_block_rows(N), n)
    m = min(k, _prefix_width(N))
    width = np.dtype(_label_dtype(N)).itemsize
    held = (2 * n * k * width + 3 * n * N * np.dtype(work).itemsize
            + block * N * 8 + (m + 3 * n) * 2 ** m * 8
            + 3 * np.getbufsize() * 8)
    if work != exact:
        held += block * (8 + N * np.dtype(exact).itemsize)
    return held


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


def _recount(x: np.ndarray, N: int, out: np.ndarray) -> None:
    """Write the counts of one row x, k coordinates in [0, N), into out,
    N integers of an exact type: the recurrence
    T_j[r] = T_(j-1)[r] + T_(j-1)[r - x_j] of _dp_rows, in place, with
    one np.roll row more."""
    out[:] = 0
    out[0] = 1
    for xj in x.tolist():
        out += np.roll(out, xj)


def count_eta_batch(xs: np.ndarray, N: int, reduce=None, table=None,
                    depths=None):
    """eta for many draws at once, reduced row-wise block by block.

    xs is (S, k) integers.  The rows are counted in chunks of
    CHUNK_BYTES // (N * itemsize) draws on one work table, allocated once
    per call with its window view and overwritten by every chunk, and
    each chunk is handed to reduce(rows, eta_block) in blocks of
    _block_rows(N) = CHUNK_BYTES // (8 N) rows while it is still in
    cache: rows is the block's slice of xs and eta_block its (len, N)
    counts in the work dtype, or in an exact type for a block with
    recounted rows (below).  eta_block is a view of the work table,
    so it is valid only during that call: a reducer may return it or a
    view of it (the result is copied out before the next block), but
    must not keep it.  The per-row results are concatenated in row order,
    at the type of the first block's result, promoted when a later
    block's result has another (a recounted block returned whole); the
    reducer must be row-wise, so they do not depend on where the blocks
    are cut.  An empty xs still makes one call, on no rows,
    which gives the output's shape and dtype.  The default reducer widens
    the block to int64, so count_eta_batch(xs, N) is the (S, N) int64
    table.

    `depths`, in place of reduce, is a dict {j: reducer} of depths
    0 <= j <= k, and the call returns the dict {j: output}.  Every step
    of the recurrence from the seed on is a depth of the count: after j
    of them, each row holds the counts of its first j coordinates,
    bitwise those of count_eta_batch(xs[:, :j], N).  So one count to k
    hands each chunk, block by block, to the reducer of every depth asked
    for, as it passes that depth, and each depth's results are put
    together as one call's are.  Without depths, the call reads the one
    depth k with reduce and returns that depth's output alone.

    `table` picks the work table, one of three:

    * None, the exact counts.  The work tables are int16 up to
      k = INT16_K_LIMIT, int32 up to k = INT32_K_LIMIT and int64 beyond
      (a count is at most 2^k), but uint16 where k > INT16_K_LIMIT and
      the mean count 2^k / N is at most UINT16_MEAN_LIMIT (_batch_dtype).
      A uint16 table counts modulo 2^16.  A count mod 2^16 is at most the
      count, and equal to it exactly when the count is below 2^16, and
      the counts of a row sum to 2^k, so a row is exact exactly when its
      int64 row sum is 2^k.  Each block is checked so, at each depth j by
      its own row sum 2^j (from j = 16 on: below it no count reaches
      2^16), before its reducer sees it; if a row fails,
      the block is widened to the exact type of that depth
      (_work_dtype(j)), the failed rows are counted again there on their
      first j coordinates, one at a time (_recount), and the reducer gets
      the widened block.  A count only grows with the depth, so a row
      that fails at j fails at every deeper depth too.
    * np.uint8, the counts modulo 2^8, with no certificate.  The
      recurrence commutes with reduction mod 2^8, and so do the histogram
      assigned to the table and each step's wrapping add, so every count
      is the true count mod 256: never above it, and equal to it while
      it is below 256.  simulate's checkpoint reads lower bounds so.
    * np.bool_, only which counts are nonzero, the support of eta.  The
      table is seeded by assigning True at the 2^m subset sums, with no
      histogram, and each step's add is numpy's bool add, which is OR: a
      residue is reached after j coordinates exactly when it was reached
      after j - 1 or its window was.  A bool never wraps.

    A uint8 or bool chunk has twice the rows of an int16 one in the same
    bytes.  Each row is kept doubled, [T | T], so T[(r - x_j) mod N] for
    every r is the contiguous slice starting at N - x_j, gathered with no
    modulo pass.  The table is viewed as (rows, 2, N), the two halves of
    each row.  A chunk starts from the 2^m subset sums of its first m
    coordinates (m the smaller of _prefix_width(N) and the shallowest
    depth asked for, sums from _subset_sums as one
    float64 product with a bit table built once per call; at m = 0 the
    one empty sum gives the unit row T_0), written into both halves: on a
    count table as their histogram, one int64 bincount per block, in one
    assignment, and on a bool table as True at each sum's two places.
    Each of the remaining k - m steps of the recurrence gathers the
    windows and adds them to both halves in one broadcast add, which
    keeps them equal with no copy.  So each temporary is sized by its
    own dtype: the table is 2 CHUNK_BYTES, the gathered window
    CHUNK_BYTES, the int64 histogram, the bit table and the float64 copy
    a value kernel makes of its block are each at most CHUNK_BYTES, and
    a chunk's subset sums, 2^m <= N / 16 of them a row, at most
    CHUNK_BYTES / 2 (_count_bytes adds them up, with what the certificate
    holds).
    """
    xs = np.asarray(xs)
    _, k = xs.shape
    if depths is None:
        return _count_depths(xs, N, table, {k: reduce or _widen})[k]
    if reduce is not None or not all(0 <= j <= k for j in depths):
        raise ValueError(f"depths must map depths 0 .. {k} to reducers, "
                         "in place of reduce")
    return _count_depths(xs, N, table, depths)


def _count_depths(xs: np.ndarray, N: int, table, reducers: dict) -> dict:
    """count_eta_batch of xs on the work table of `table`, handing every
    block to reducers[j] at each depth j it holds: {j: output}."""
    S, k = xs.shape
    work, exact = _table_types(N, k, table)
    label = _label_dtype(N)
    rows, block = _chunk_rows(N, work), _block_rows(N)
    m = min(min(reducers), _prefix_width(N))
    n_max = min(rows, max(S, 1))
    bits = _bit_table(m)
    # one work table for every chunk: each chunk overwrites its rows
    work_table = np.empty((n_max, 2 * N), dtype=work)
    # windows[s, i] is the view work_table[s, i:i + N]
    windows = np.lib.stride_tricks.sliding_window_view(work_table, N, axis=1)
    outs = dict.fromkeys(reducers)
    # one pass over an empty xs still gives the reducers' output shapes
    for lo in range(0, max(S, 1), rows):
        # reduced, and below negated, at the width of N
        x = (xs[lo:lo + rows] % N).astype(label, copy=False)
        n = x.shape[0]
        # the chunk's rows [T | T] as their two halves
        halves = work_table[:n].reshape(n, 2, N)
        sums = _subset_sums(x[:, :m], N, bits)
        if work == np.bool_:
            # True at each sum in both halves of its row, flat in the
            # chunk's rows (at m = 0 the one empty sum, 0: the unit row)
            cells = work_table[:n].reshape(-1)
            cells[:] = False
            sums += (np.arange(n) * (2 * N))[:, None]
            cells[sums] = True
            sums += N
            cells[sums] = True
        else:
            # one bincount a block: the sums of row a + s of a block land
            # in s*N .. s*N+N-1 (at m = 0 the one empty sum, 0: the unit
            # row), wrapped by the assignment on a uint8 table
            sums += (np.arange(n) % block * N)[:, None]
            for a in range(0, n, block):
                b = min(a + block, n)
                halves[a:b] = np.bincount(
                    sums[a:b].ravel(), minlength=(b - a) * N
                ).reshape(b - a, 1, N)
        chunk_rows = np.arange(n)
        start = N - x  # in [1, N]
        for j in range(m, k + 1):
            if j > m:
                halves += windows[chunk_rows, start[:, j - 1]][:, None, :]
            if j not in reducers:
                continue
            for a in range(0, max(n, 1), block):
                b = min(a + block, n)
                eta = halves[a:b, 0]
                # the certificate, on a uint16 table (the one work type
                # that differs from the exact type): a row is exact iff
                # its counts sum to 2^j, and below j = 16 no count can
                # reach 2^16
                if work != exact and j >= 16:
                    bad = np.flatnonzero(
                        eta.sum(axis=1, dtype=np.int64) != 2 ** j)
                    if bad.size:
                        eta = eta.astype(_work_dtype(j))
                        for i in bad.tolist():
                            _recount(x[a + i, :j], N, eta[i])
                result = reducers[j](slice(lo + a, lo + b), eta)
                out = outs[j]
                if out is None:
                    out = np.empty((S,) + result.shape[1:], dtype=result.dtype)
                elif result.dtype != out.dtype:
                    out = out.astype(np.promote_types(out.dtype, result.dtype),
                                     copy=False)
                out[lo + a:lo + b] = result
                outs[j] = out
    return outs


def iter_all_eta(N: int, k: int):
    """Yield (labels_chunk, eta_chunk) over all x in Z_N^k in lexicographic
    order, 4096 rows a chunk (success.SHARD); labels_chunk is an (S, k)
    digit array.  Unguarded and N^k rows long: the slow path the orbit
    walk is tested against."""
    total, batch = N ** k, 4096
    weights = N ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for lo in range(0, total, batch):
        flat = np.arange(lo, min(lo + batch, total), dtype=np.int64)
        digits = (flat[:, None] // weights[None, :]) % N
        yield digits, count_eta_batch(digits, N)


class _Roots(NamedTuple):
    """Where an orbit walk starts: C root prefixes of `depth` digits
    (0 or 1), each with the digit set its other digits run over, padded
    to a (C, A) table; a depth-1 root's own digit comes first."""

    depth: int
    weight: np.ndarray   # (C,) int64 factor of every leaf's weight
    digits: np.ndarray   # (C, A) int64 digit sets, padded
    sizes: np.ndarray    # (C,) int64 lengths of the digit sets
    fresh: np.ndarray    # (C, A) bool: a first use adds a distinct element
    uses: np.ndarray     # (C, A) int64 labels each use of a digit stands for

    def prefixes(self, k: int) -> int:
        """The number of prefixes of k digits the walk visits: each root
        extends by k - depth nondecreasing digits of its set."""
        steps = k - self.depth
        return sum(math.comb(a + steps - 1, steps)
                   for a in self.sizes.tolist())


def _symmetric_roots(N: int) -> _Roots:
    """The S_k walk's one root: the empty prefix, with the digits
    0 .. N - 1, each standing for itself, and no distinct elements to
    count."""
    return _Roots(0, np.ones(1, dtype=np.int64),
                  np.arange(N, dtype=np.int64)[None, :],
                  np.full(1, N, dtype=np.int64), np.zeros((1, N), dtype=bool),
                  np.ones((1, N), dtype=np.int64))


def _totient(m: int) -> int:
    """Euler's phi(m), the number of units of Z_m, by trial division."""
    out, p = m, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    return out - out // m if m > 1 else out


def _unit_roots(N: int, k: int) -> _Roots:
    """Roots of the walk over one x per orbit of Z_N^k under coordinate
    permutations, multiplication by the units u of Z_N, which permutes
    the residues r -> u r, and negating any one coordinate x_i, which
    shifts eta cyclically by x_i (complementing bit i maps the solutions
    of b . x = r onto those of b . x' = r - x_i).  So its weighted rows
    sum every statistic of eta that both of those keep over all of Z_N^k.

    The digits are the classes {c, -c} as their least elements
    c = 0 .. N // 2, a use of class c standing for |{c, -c}| labels (2
    unless 2c = 0 mod N).  A multiset M of digits falls in the class of
    the least divisor g of N that is gcd(x_i, N) for some element
    (gcd(0, N) = N; negation keeps it).  The units permute the class-g
    digits transitively, so the pairs (M, c) with c a class-g digit of M
    map one to one onto the pairs (u_c^-1 M, c) for any fixed u_c with
    u_c g = c, and u_c^-1 M contains g.  Hence the sum over Z_N^k is the
    sum over the multisets M that contain g and whose elements all have
    gcd(., N) >= g of n_g w(M) / D(M), where n_g is the number of class-g
    digits, w the labels M stands for (its S_k orbit size times the uses
    of its elements) and D the number of distinct class-g digits of M.
    There is one root per divisor g, ascending: the prefix (g mod N),
    weight n_g times the uses of g, which is phi(N/g), and the digit set
    g mod N followed by the other digits with gcd(., N) >= g, ascending,
    of which the class-g ones are fresh.  Beyond the root's own digit the
    sets are built only when k > 1, where the enumeration guard keeps
    N <= 2^13."""
    divisors = sorted({d for i in range(1, math.isqrt(N) + 1) if N % i == 0
                       for d in (i, N // i)})
    C = len(divisors)
    A = N // 2 + 1
    weight = np.array([_totient(N // g) for g in divisors], dtype=np.int64)
    digits = np.zeros((C, A if k > 1 else 1), dtype=np.int64)
    fresh = np.zeros(digits.shape, dtype=bool)
    sizes = np.ones(C, dtype=np.int64)
    gcds = np.gcd(np.arange(A), N) if k > 1 else None
    for c, g in enumerate(divisors):
        digits[c, 0] = g % N
        if gcds is not None:
            others = np.flatnonzero(gcds >= g)
            others = others[others != g % N]
            sizes[c] += others.size
            digits[c, 1:sizes[c]] = others
            fresh[c, 1:sizes[c]] = gcds[others] == g
    uses = np.where(2 * digits % N != 0, 2, 1)
    return _Roots(1, weight, digits, sizes, fresh, uses)


def _over_gcd() -> tuple[np.ndarray, np.ndarray]:
    """run / g and n / g, g = gcd(n, run), as two tables indexed [n, run]
    for every n, run <= BATCH_K_LIMIT (g = 1 at n = run = 0, never read):
    _orbit_walk takes a child's weight w n / run, for a prefix of length
    n whose last digit runs `run` times, as w // (run / g) * (n / g),
    exact since run / g divides w n / run times run / g and is prime to
    n / g."""
    lengths = np.arange(BATCH_K_LIMIT + 1)
    g = np.gcd.outer(lengths, lengths)
    g[0, 0] = 1
    return lengths // g, lengths[:, None] // g


_RUN_OVER_GCD, _LENGTH_OVER_GCD = _over_gcd()


def _orbit_walk(N: int, k: int, roots: _Roots | None = None,
                shallowest: int | None = None):
    """Yield (depth, weights, distinct, eta) blocks over one x per orbit
    of Z_N^k under permutations of the coordinates (the nondecreasing x, in
    lexicographic order), or under those, the units of Z_N and coordinate
    negations when roots is _unit_roots(N, k).  A row stands for
    weights / distinct labels, so a weighted sum over the rows of a
    statistic the group leaves unchanged equals the sum over all of
    Z_N^k.  weights are exact int64 (with roots None, the S_k orbit
    sizes, summing to N^k, and distinct all 1), and eta the (rows, N)
    counts in the work dtype of count_eta_batch, a view of a work table
    that is valid only until the next block.  A block has at most as many
    rows as fill CHUNK_BYTES with doubled tables [T | T].

    The walk to depth k passes through every shallower depth j with the
    representatives, weights and distinct counts of the walk to depth j,
    in the same order.  It yields every block of each depth j from
    shallowest (k when None: the depth-k blocks alone) to k, in walk
    order, so one walk serves every k of a sweep.  All depths share the
    work dtype of k, and the eta of a depth below k is the first half of
    its level's doubled table, a strided view.

    The walk goes depth first from the roots (_Roots), level j holding a
    block of prefixes with their doubled tables [T_j | T_j]; the roots are
    taken a table of at most that many at a time, each table walked to
    depth k before the next.  A prefix's other digits run nondecreasing in
    the order of its root's digit set, so the children of a prefix whose
    last digit sits at position i of that set append the digits at
    positions i, i + 1, ...; a depth-1 root's digit sits at position 0.
    T_(j+1)[r] = T_j[r] + T_j[r - x_(j+1)] is the prefix's half plus its
    window at N - x_(j+1), so every child costs one gather and one add
    (both halves at once) and shares its prefix's steps.  A child's
    weight is its parent's times its length over the run of its last
    digit, an integer since the weight over the root's factor and the
    prefix's uses is the integer orbit size of the prefix, times the uses
    of that digit (_Roots.uses).  It is taken as the parent's weight
    divided by run / g and then multiplied by length / g, g their gcd
    (_over_gcd), so no intermediate exceeds the child's weight and none
    wraps in int64 where the weights themselves fit.
    Its distinct count is its parent's plus one when the digit is fresh
    and starts a run.  Only the last level is undoubled; each level's
    table holds min(rows, its number of prefixes) rows."""
    if roots is None:
        roots = _symmetric_roots(N)
    depth, root_weight, digits, sizes, fresh, uses = roots
    work = _work_dtype(k)
    rows = _chunk_rows(2 * N, work)
    steps, C = k - depth, sizes.shape[0]
    lowest = k if shallowest is None else shallowest

    def seed(out, lead):
        # the counts of each root prefix, in each N-wide half of out
        out[...] = 0
        for half in range(0, out.shape[1], N):
            out[:, half] = 1
            if depth:
                out[np.arange(lead.shape[0]), half + lead] += 1

    # level j's table, j = 0 .. steps, sized by its number of prefixes
    tables = [np.empty((min(rows, roots.prefixes(depth + j)),
                        (2 if j < steps else 1) * N), dtype=work)
              for j in range(steps + 1)]
    halves = [t.reshape(-1, 2, N) for t in tables[:steps]]
    # windows[j][s, i] is the view tables[j][s, i:i + N], made without
    # sliding_window_view's checks, which cost more than a small level
    windows = [np.lib.stride_tricks.as_strided(
        t, (t.shape[0], N + 1, N), t.strides + t.strides[1:], writeable=False)
        for t in tables[:steps]]
    # the digit sets as flat arrays, entry i of root c at c * width + i:
    # T_j[(r - x) mod N] for every r is the window starting at N - x
    width = digits.shape[1]
    shifts = (N - digits).ravel()
    fresh, uses = fresh.ravel(), uses.ravel()
    # one frame per open level: its prefixes' flat positions of their last
    # digits and the ends of their roots' digit sets, runs of the last
    # digit, weights and distinct counts, the end of each prefix's range
    # of children, and the next child to make
    frames = []

    def push(at, stop, run, weight, distinct):
        ends = np.cumsum(stop - at)
        frames.append([at, stop, run, weight, distinct, ends,
                       ends - (stop - at), 0])

    for c0 in range(0, C, rows):
        c1 = min(c0 + rows, C)
        top = tables[0][:c1 - c0]
        seed(top, digits[c0:c1, 0])
        ones = np.ones(c1 - c0, dtype=np.int64)
        if depth >= lowest:
            yield depth, root_weight[c0:c1], ones, top[:, :N]
        if steps:
            first = np.arange(c0, c1) * width
            push(first, first + sizes[c0:c1],
                 np.full(c1 - c0, depth, dtype=np.int64), root_weight[c0:c1],
                 ones)
        while frames:
            at, stop, run, weight, distinct, ends, starts, lo = frames[-1]
            total = int(ends[-1])
            if lo == total:
                frames.pop()
                continue
            hi = frames[-1][-1] = min(lo + rows, total)
            level = len(frames)  # of the children, 1 .. steps
            child = np.arange(lo, hi)
            parent = np.searchsorted(ends, child, side="right")
            at_p = at[parent]
            at_c = at_p + (child - starts[parent])
            same = at_c == at_p
            run_c = np.where(same, run[parent] + 1, 1)
            n = depth + level
            weight_c = (weight[parent] // _RUN_OVER_GCD[n][run_c]
                        * _LENGTH_OVER_GCD[n][run_c] * uses[at_c])
            distinct_c = distinct[parent] + (fresh[at_c] & ~same)
            window = windows[level - 1][parent, shifts[at_c]]
            if level == steps:
                out = tables[steps][:hi - lo]
                np.take(halves[steps - 1][:, 0], parent, axis=0, out=out)
                out += window
                yield k, weight_c, distinct_c, out
            else:
                out = halves[level][:hi - lo]
                np.take(halves[level - 1], parent, axis=0, out=out)
                out += window[:, None, :]
                if depth + level >= lowest:
                    yield depth + level, weight_c, distinct_c, out[:, 0]
                push(at_c, stop[parent], run_c, weight_c, distinct_c)


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


def vtilde(label: BlockLabel) -> np.ndarray:
    """The partial isometry sum_p |p><S_p| as an (N, 2^k) complex row
    stack: row p is |S_p>, zero where eta_p = 0."""
    sums = label.bit_dots
    rows = np.zeros((label.N, 2 ** label.k), dtype=np.complex128)
    cols = np.arange(2 ** label.k)
    rows[sums, cols] = 1 / np.sqrt(label.eta[sums])
    return rows


# ---------------------------------------------------------------------------
# uniform sampling of solutions
# ---------------------------------------------------------------------------

def _dp_rows(label: BlockLabel) -> list[np.ndarray]:
    """The counting table T_0 .. T_k as a list of k+1 rows of N counts,
    by T_j[r] = T_{j-1}[r] + T_{j-1}[r - x_j].  A count after j
    coordinates is at most 2^j, so rows 0 .. min(k, BATCH_K_LIMIT) are
    int64, and each deeper row is widened to Python integers (dtype
    object) before it is summed, so every count is exact.  Guarded at
    DP_TABLE_LIMIT cells before it is allocated."""
    N, k = label.N, label.k
    if (k + 1) * N > DP_TABLE_LIMIT:
        raise ScaleLimitError(
            f"counting table (k+1) * N = {(k + 1) * N} cells exceeds "
            f"the guard of {DP_TABLE_LIMIT}")
    rows = [np.zeros(N, dtype=np.int64)]
    rows[0][0] = 1
    for j, xj in enumerate(label.x, start=1):
        prev = rows[-1] if j <= BATCH_K_LIMIT else rows[-1].astype(object)
        # np.roll(T, x)[r] = T[(r - x) mod N]
        rows.append(prev + np.roll(prev, xj))
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


def sample_solutions(inst: SubsetSumInstance, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """`count` exactly-uniform solutions of a legal instance, by
    backtracking the counting table; O(kN + k count) time, no enumeration.
    Solutions are bit integers b (b_1 the least significant bit): int64
    while k <= BATCH_K_LIMIT, and Python integers (dtype object) beyond,
    where every row, the int64 ones too, is drawn with _randbelow from
    the exact counts.

    Raises ValueError("no solution") on illegal instances.
    """
    label = inst.label
    table = _dp_rows(label)
    if table[-1][inst.t] == 0:
        raise ValueError("no solution")
    big = label.k > BATCH_K_LIMIT
    b = np.zeros(count, dtype=object if big else np.int64)
    r = np.full(count, inst.t, dtype=np.int64)
    for j in range(label.k, 0, -1):
        shifted = (r - label.x[j - 1]) % label.N
        take = table[j - 1][shifted]
        if big:
            u = np.array([_randbelow(rng, n) for n in table[j][r].tolist()],
                         dtype=object)
        else:
            u = rng.integers(0, table[j][r])
        hit = u < take
        b |= hit.astype(b.dtype) << (j - 1)
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
    V = vtilde(label)
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

"""End-to-end simulation of the block-by-block measurement protocol.

A trial draws the block label x (uniform on Z_N^k for every hidden
subgroup), computes the exact N+1-outcome distribution inside that block
from the solution counts alone, and samples an outcome by inverse CDF.
Within block x the outcome probabilities for a hidden shift d are

    P(j | x) = |sum_p omega^((d-j) p) sqrt(eta_p^x)|^2 / (N 2^k),

which depends on j only through (d - j) mod N; the trivial outcome has
probability zero.  For the trivial subgroup every j is equally likely at
support_dim / (N 2^k) and the leftover outcome absorbs the rest.

Nothing here materializes 2^k-dimensional vectors.  For a shift, the
CDF puts d first: P(d) = (sum_p sqrt(eta_p))^2 / (N 2^k) is the per-draw
success value of the estimators, one sum of square roots with no FFT,
and above the threshold it is of order one, so most trials end there.
Only a trial that misses d takes one real Fourier transform of
sqrt(eta): sqrt(eta) is real, so the spectrum is Hermitian and its half
m = 0 .. N // 2 holds every |.|^2 the outcomes read; P(j) for the other
j reads it at fold(d - j) from at most three forward or reversed slices
(_shift_plan, and _miss_plan in the CDF's order), copied into one CDF
buffer and summed there.  Most shift trials need not even count all k
coordinates: head = (sum_p sqrt(eta_p))^2 after k coordinates is at
least 2^(k - j) times its value after the first j, so a trial whose u
lies below P(d) of its prefix, by a margin for rounding, takes d at the
checkpoint depth j (_checkpoint, _settled_outcomes), and only the other
trials are counted to k.  For the trivial subgroup the support size of
eta is all it takes, counted on bool tables (count_eta_batch's support
mode).  That is what lets the simulator run at k around 20
and N around 1024.  Trials draw their labels in the estimators' one
Monte Carlo pass, success._sharded.  A shard sends back its outcomes
alone, at the width of N (success._label_dtype), which run_trials hands
to a sink when it streams them; it sends its labels too only when
run_trials keeps the trial columns.
"""

from __future__ import annotations

# Unused here: perfbench/spans.py traces simulate.ThreadPoolExecutor.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from contextlib import closing
from functools import partial

import numpy as np

from .dihedral import TRIVIAL, BlockLabel
from .subsetsum import (CHUNK_BYTES, _block_rows, _count_bytes,
                        _label_dtype, count_eta_batch)
from .success import SHARD, _draw_rows, _sharded, _support_sizes


def _trivial_distributions(support: np.ndarray, N: int, k: int) -> np.ndarray:
    """Trivial-subgroup outcome probabilities, one row per support size:
    support / (N 2^k) for every j, and the trivial outcome the rest."""
    out = np.empty((support.shape[0], N + 1))
    out[:, :N] = (support / (N * float(2 ** k)))[:, None]
    out[:, N] = 1.0 - support / float(2 ** k)
    return out


def _power_spectrum(roots: np.ndarray) -> np.ndarray:
    """W[m] = |sum_p omega^(mp) roots_p|^2 for m = 0 .. N // 2, one row
    per draw, from the square roots of its eta.  P(j) = W[fold(d - j)]
    / (N 2^k) for every shift d, so shift covariance is exact by
    construction.  The roots are real, so W[m] = W[N - m] and the half
    spectrum of one real FFT holds all of W.  Both parts of the complex
    spectrum are squared in one contiguous pass, in place, and W is
    their sum in the real parts, a strided view: nothing is held beside
    the complex spectrum."""
    amps = np.fft.rfft(roots, axis=1)
    parts = amps.view(np.float64)
    parts *= parts
    W = parts[:, 0::2]
    W += parts[:, 1::2]
    return W


def _shift_plan(N: int, d: int) -> list[tuple[int, int, slice]]:
    """Where P(j) = W[fold(d - j)] reads the half spectrum W for a shift d
    in [0, N), j = 0 .. N - 1, with fold(m) = min(m, N - m) of
    m = (d - j) mod N: at most three runs (j0, j1, cols), P[j0:j1] being
    W[cols] for a forward or reversed slice cols.  As j runs up, m runs
    down from d to 0 and then from N - 1 to d + 1, and fold(m) is m up
    to h = N // 2 and N - m above it, so each of the two stretches splits
    once at most, where m passes h."""
    h = N // 2
    # (first column, length, step) of each run, in the order of j
    runs = ([(d, d + 1, -1), (1, N - h - 1, 1), (h, h - d, -1)] if d <= h
            else [(N - d, d - h, 1), (h, h + 1, -1), (1, N - d - 1, 1)])
    plan, j = [], 0
    for first, length, step in runs:
        if length:
            stop = first + step * length
            plan.append((j, j + length,
                         slice(first, stop if stop >= 0 else None, step)))
            j += length
    return plan


def _miss_plan(N: int, d: int) -> list[tuple[int, int, slice]]:
    """Where the CDF of a trial that missed d reads the half spectrum W:
    column 0 holds P(d), so P(j) for j != d follows in the order of j,
    j < d at column j + 1 and j > d at column j.  These are the runs of
    _shift_plan(N, d), those up to j = d moved one column right, with the
    m = 0 column of j = d dropped: it is always the last entry of its run,
    a reversed slice that ends at W[0]."""
    plan = []
    for j0, j1, cols in _shift_plan(N, d):
        if j0 <= d < j1:
            j1, cols = d, slice(cols.start, 0, -1)
        if j1 > j0:
            move = int(j0 < d)
            plan.append((j0 + move, j1 + move, cols))
    return plan


def _unfold(W: np.ndarray, plan, P: np.ndarray) -> None:
    """P[:, c0:c1] = W[:, cols] for the runs (c0, c1, cols) of a plan, row
    by row: P(j) in column j for _shift_plan(N, d), and in the CDF columns
    of a trial that missed d for _miss_plan(N, d)."""
    for c0, c1, cols in plan:
        P[:, c0:c1] = W[:, cols]


def _distributions(eta: np.ndarray, N: int, k: int, hidden) -> np.ndarray:
    """Outcome probabilities, rows = draws, columns = (j in Z_N, trivial)."""
    if hidden == TRIVIAL:
        return _trivial_distributions(_support_sizes(eta), N, k)
    out = np.zeros((eta.shape[0], N + 1))
    _unfold(_power_spectrum(np.sqrt(eta, dtype=np.float64)),
            _shift_plan(N, int(hidden) % N), out)
    out[:, :N] /= N * float(2 ** k)
    return out


def _outcome_rows(N: int) -> int:
    """Rows of the float64 CDF tables, of N or N + 1 columns, that
    _outcomes and _trivial_outcomes build at once: about CHUNK_BYTES / 2
    a table."""
    return max(1, CHUNK_BYTES // (16 * N))


def _outcome_bytes(N: int, k: int = 0, rows: int = 0) -> int:
    """The bytes the outcome reducers hold at once beyond a value
    kernel's one float64 block, here the square roots of eta of one
    counting block (_block_rows(N) rows): for _outcome_rows(N) rows, the
    CDF buffer, N float64s a row, and the complex half spectrum,
    N // 2 + 1 complex128s a row, which the real one is squared into;
    the square roots gathered for one FFT, N float64s a row, of at most
    _block_rows(N) - 1 rows, since a block whose every row misses is
    read in place (so none where a block is one row); and four 8-byte
    values a row of the block: its scaled uniforms, the heads of its
    CDFs, the rows that miss and their outcomes.  The trivial subgroup's
    two (rows, N + 1) tables, and its sort order of the support sizes,
    are made after counting, when none of count_eta_batch's temporaries
    is held.

    A shard of `rows` shift trials of k coordinates with a checkpoint
    (_checkpoint) first counts their first j coordinates, holding none
    of those tables but four 8-byte values a row of a block (the heads,
    the scaled uniforms and their comparison), and its own count's
    temporaries, which can exceed the full count's where the narrower
    work type of depth j gives a chunk more rows (N = 18,720, k = 31:
    7 uint16 rows against one int64 row); the larger of the two stages
    is counted.  Its per-shard arrays are counted in the slots of a draw
    (_settled_outcomes)."""
    per_block, block = _outcome_rows(N), _block_rows(N)
    held = (per_block * (N * 8 + (N // 2 + 1) * 16)
            + min(per_block, block - 1) * N * 8 + block * 4 * 8)
    j = _checkpoint(N, k)
    if j:
        held = max(held, _count_bytes(rows, N, j) - _count_bytes(rows, N, k)
                   + min(block, rows) * 4 * 8)
    return held


def _miss_cdf(roots: np.ndarray, head: np.ndarray, plan,
              P: np.ndarray) -> None:
    """Write into P the CDFs, in units of 1 / (N 2^k), of the trials
    whose square roots of eta are the rows of roots: head, which is
    (sum_r sqrt(eta_r))^2 = N 2^k P(d), in column 0, then P(j) for j != d
    in the order of j, read from their half spectra by plan
    (_miss_plan(N, d)), summed in place."""
    _unfold(_power_spectrum(roots), plan, P)
    P[:, 0] = head
    np.cumsum(P, axis=1, out=P)


def _outcomes(eta: np.ndarray, N: int, k: int, d: int, plan, u: np.ndarray,
              cdf: np.ndarray) -> np.ndarray:
    """Inverse-CDF outcomes for a hidden shift d, one per row of eta, from
    one uniform u per row, over the outcomes in the order d first, then
    every other j in ascending order, then the trivial outcome: each
    outcome takes the u from the total probability of the outcomes before
    it up to that total plus its own, so a u on a boundary goes to the
    later outcome and an outcome of probability 0 is never drawn.  plan
    is _miss_plan(N, d), and cdf a float64 buffer of N columns and
    min(_outcome_rows(N), rows of eta) rows or more, both made once for a
    shard.  The trivial subgroup takes _trivial_outcomes.

    Everything is compared in units of 1 / (N 2^k), against u N 2^k,
    which is exact when N is a power of two.  A row hits d when u N 2^k
    is below head = (sum_r sqrt(eta_r))^2, N 2^k times the success value
    of success._success_values, from one float64 square root of the block:
    above the threshold nearly every row does (P(d) averages about 1 at
    N = 1024, k = 20), and a hit needs no FFT.  Only the rows that miss
    go on, _outcome_rows(N) = CHUNK_BYTES // (16 N) at a time, about half
    a counting block of CHUNK_BYTES // (8 N) rows: their square roots,
    gathered or, when the whole block misses, read in place, give their
    CDFs (_miss_cdf), which start at the same head the hit was decided
    on, so the two never disagree at a boundary.  A u that missed
    counts column 0 and so lands at a count i from 1 to N: j = i - 1 for
    i <= d, j = i above d, and N is the trivial outcome, which only a
    total rounded below u N 2^k reaches.  The CDF buffer is made once a
    shard: with tables allocated block after block the allocator handed
    back and faulted in their pages, 9e4 page faults and up to 1.5x the
    time for the 10000 trials of simulate at N = 1024, k = 20, against
    3e3-3e4."""
    roots = np.sqrt(eta, dtype=np.float64)
    scaled = u * (N * float(2 ** k))
    head = roots.sum(axis=1) ** 2
    outcomes = np.full(eta.shape[0], d, dtype=np.int64)
    miss = np.flatnonzero(scaled >= head)
    whole = miss.size == eta.shape[0]
    step = _outcome_rows(N)
    for lo in range(0, miss.size, step):
        rows = miss[lo:lo + step]
        P = cdf[:rows.size]
        _miss_cdf(roots[lo:lo + step] if whole else roots[rows], head[rows],
                  plan, P)
        i = np.count_nonzero(P <= scaled[rows, None], axis=1)
        outcomes[rows] = i - (i <= d)
    return outcomes


def _trivial_outcomes(support: np.ndarray, N: int, k: int,
                      u: np.ndarray) -> np.ndarray:
    """Inverse-CDF outcomes for the trivial subgroup, from the support
    sizes alone: one cumulative row of _distributions's trivial table per
    distinct support size, summed _outcome_rows(N) rows at a time,
    searched for the u of the rows with that size.  The row never
    decreases, so searchsorted(side="right") is its number of entries at
    or below u, as the inverse CDF over each draw's own table counts
    them.  The distinct sizes are read from np.bincount and the rows of
    each from one stable argsort of the sizes, not from np.unique, whose
    first call in a process imports numpy.ma: 8-10 ms that each cold
    worker of the pool paid in its first trivial shard, about half the
    CPU time of a 4096-draw shard at N = 1024, k = 10."""
    outcomes = np.empty(support.shape[0], dtype=np.int64)
    # the rows sorted by size, those of the distinct size sizes[i] ending
    # at ends[i], in row order
    order = np.argsort(support, kind="stable")
    counts = np.bincount(support)
    sizes = np.flatnonzero(counts)
    ends = np.cumsum(counts[sizes])
    step = _outcome_rows(N)
    for lo in range(0, sizes.size, step):
        block = sizes[lo:lo + step]
        cdfs = np.cumsum(_trivial_distributions(block, N, k), axis=1)
        for end, count, cdf in zip(ends[lo:lo + step], counts[block], cdfs):
            rows = order[end - count:end]
            outcomes[rows] = np.searchsorted(cdf, u[rows], side="right")
    return np.minimum(outcomes, N)


def outcome_distribution(label: BlockLabel, hidden) -> np.ndarray:
    """Exact within-block outcome probabilities for one label, length
    N + 1 with the trivial outcome last."""
    eta = count_eta_batch(np.array([label.x]), label.N)
    return _distributions(eta, label.N, label.k, hidden)[0]


def _checkpoint(N: int, k: int) -> int:
    """The depth j = (N - 1).bit_length() + 3 at which _trial_shard
    settles the shift trials it can, where the mean count 2^j / N is 8
    or more, or 0 where k - j < 2 and there is no checkpoint: a trial it
    settles saves at least two of the k steps, which pays for the count
    to j of the trials it leaves open."""
    j = (N - 1).bit_length() + 3
    return j if k - j >= 2 else 0


def _shift_outcomes(xs, N: int, k: int, d: int, u) -> np.ndarray:
    """The outcomes for a hidden shift d of the draws xs, one uniform u
    each, from their full counts: count_eta_batch's reducer _outcomes,
    with its slice plan and CDF buffer made once."""
    plan = _miss_plan(N, d)
    cdf = np.empty((min(_outcome_rows(N), len(xs)), N))
    return count_eta_batch(
        xs, N, lambda rows, eta: _outcomes(eta, N, k, d, plan, u[rows], cdf))


def _settled_outcomes(xs, N: int, k: int, d: int, j: int,
                      u) -> np.ndarray:
    """The outcomes of _shift_outcomes(xs, N, k, d, u), from the counts
    of the first j coordinates (_checkpoint) for the rows they settle and
    from the full counts for the others, the open rows.  u is overwritten.

    A row settles when u N 2^j < head_j (1 - 2^-30), for the head
    (sum_r sqrt(eta_r))^2 of its counts after j coordinates.  No row that
    would miss d is settled: after k coordinates eta is the sum of
    2^(k - j) copies of the depth-j table, each shifted by one subset sum
    of the last k - j coordinates, so the concavity of the square root
    gives head_k >= 2^(k - j) head_j, with equality when those
    coordinates are all 0.  u N 2^k is exactly 2^(k - j) times u N 2^j,
    and each computed head, N rounded square roots summed and squared, is
    within a relative (2N + 1) 2^-53 < 2^-35 of its value at every N the
    memory guard lets through, so the margin 2^-30 makes u N 2^k < head_k
    as computed: the full count would have hit d too.  The bound is
    tight, so the margin is needed.

    The shard's one flag a row, and then the open rows' index, take the
    place of a draw's values and deviations in the memory guard
    (success._worker_bytes); the open rows' uniforms are moved to the
    front of u, in place, and their labels are gathered
    success._draw_rows(k) rows at a time, at most the bytes of the int64
    chunk the draws were made in."""
    scale = N * float(2 ** j)
    open_rows = np.flatnonzero(count_eta_batch(
        xs[:, :j], N,
        lambda rows, eta: u[rows] * scale >= (
            np.sqrt(eta, dtype=np.float64).sum(axis=1) ** 2
            * (1 - 2.0 ** -30))))
    u[:open_rows.size] = u[open_rows]
    outcomes = np.full(len(xs), d, dtype=np.int64)
    step = _draw_rows(k)
    for lo in range(0, open_rows.size, step):
        rows = open_rows[lo:lo + step]
        outcomes[rows] = _shift_outcomes(xs[rows], N, k, d,
                                         u[lo:lo + step])
    return outcomes


def _trial_shard(N: int, k: int, hidden, rng, xs) -> np.ndarray:
    """One shard of run_trials: the outcomes of the draws xs, at the width
    of N (_label_dtype), from one uniform per draw drawn after them.
    hidden is compared to TRIVIAL by value: a str does not keep its
    identity when the shard is sent to a worker process.  Each shard
    counts only what decides its outcomes: for the trivial subgroup the
    support of eta, on count_eta_batch's bool tables; for a shift the
    first j coordinates of every draw where there is a checkpoint
    (_checkpoint), and all k only for the draws it leaves open
    (_settled_outcomes), with the same outcomes, byte for byte, as the
    full count of every draw (_shift_outcomes)."""
    u = rng.random(len(xs))
    if hidden == TRIVIAL:
        support = count_eta_batch(
            xs, N, lambda rows, eta: _support_sizes(eta), support=True)
        outcomes = _trivial_outcomes(support, N, k, u)
    else:
        d, j = int(hidden) % N, _checkpoint(N, k)
        if j:
            outcomes = _settled_outcomes(xs, N, k, d, j, u)
        else:
            outcomes = _shift_outcomes(xs, N, k, d, u)
    return outcomes.astype(_label_dtype(N))


def _labelled_trial_shard(N: int, k: int, hidden, rng, xs):
    """One shard of run_trials that keeps its columns: the draws xs and
    their outcomes (_trial_shard)."""
    return xs, _trial_shard(N, k, hidden, rng, xs)


def run_trials(N: int, k: int, hidden, trials: int, seed,
               threads: int = 1, sink=None
               ) -> tuple[float, dict[str, np.ndarray] | None]:
    """Simulate full measurement trials and return (success rate, columns).

    The columns are "labels", the (trials, k) int64 block labels x, and
    "outcomes", the (trials,) int64 outcomes j with N standing for the
    trivial outcome.  Given a sink, no columns are kept and None stands
    in their place: sink(outcomes) is called once a shard, in shard
    order, with the shard's outcomes at the width of N
    (success._label_dtype(N)) as the pass yields them, so a caller that
    streams them holds nothing that grows with the trial count.  A shard
    then sends back its outcomes alone, 2 bytes a trial at N = 1024 (8 KB
    a shard of success.SHARD draws), and its labels only when the columns
    are kept.  Outcomes are drawn by inverse CDF with one uniform per
    trial, drawn after the shard's labels: for a shift d the outcomes
    are ordered d first, then every other j ascending, then the trivial
    outcome, each taking the u from the probability of those before it
    up to that plus its own (a u on a boundary goes to the later one);
    for the trivial subgroup j ascending, then the trivial outcome.
    Trials run in the estimators' Monte Carlo pass, success._sharded
    (memory guard, success.SHARD draws a shard, split seeds, `threads`
    workers), merged in shard order.  Within a shard the outcomes for a
    shift are count_eta_batch's reducer (_outcomes): each cache-sized
    counting chunk is turned into its outcomes block by block while it
    is still in cache, a trial that hits d with no FFT and one that
    misses with one, so a worker holds its draws plus one chunk's tables
    and one block's outcome tables, which the memory guard counts
    (_outcome_bytes), never a (SHARD, N) table; the shard reads the half
    spectrum through one slice plan and sums it in one CDF buffer
    (_miss_plan), both made once.  Where there is a checkpoint depth,
    the draws that a count of their first j coordinates settles take d
    there, and only the others are counted in full (_settled_outcomes).
    For the trivial subgroup the reducer keeps only the support sizes,
    counted on bool tables, which the memory guard counts too
    (success._worker_bytes with support), and the shard's outcomes come
    from one cumulative row per distinct size (_trivial_outcomes).  Any
    hidden equal to TRIVIAL names the trivial subgroup, whatever object
    it is.
    """
    if trials < 1:
        raise ValueError("need at least one trial")

    shard = _labelled_trial_shard if sink is None else _trial_shard
    trivial = hidden == TRIVIAL
    held = (_outcome_bytes if trivial else
            partial(_outcome_bytes, k=k, rows=min(trials, SHARD)))
    shards = _sharded(N, k, trials, seed, threads,
                      partial(shard, N, k, hidden), held, support=trivial)
    columns = None
    if sink is None:
        columns = {"labels": np.empty((trials, k), dtype=np.int64),
                   "outcomes": np.empty(trials, dtype=np.int64)}
    want = N if trivial else int(hidden) % N
    hits, lo = 0, 0
    # a sink that raises closes the pass at once, which cancels its
    # shards not yet started
    with closing(shards):
        for result in shards:
            outcomes = result if columns is None else result[1]
            hits += int(np.count_nonzero(outcomes == want))
            if columns is None:
                sink(outcomes)
            else:
                columns["labels"][lo:lo + len(outcomes)] = result[0]
                columns["outcomes"][lo:lo + len(outcomes)] = outcomes
            lo += len(outcomes)
    return hits / trials, columns


def shift_covariance_check(N: int, k: int, samples: int, seed) -> bool:
    """Outcome distributions for shifted hidden values are exact index
    shifts of one another: P_d(j) == P_(d+delta)(j+delta), bitwise."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        label = BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        d = int(rng.integers(N))
        delta = int(rng.integers(N))
        base = outcome_distribution(label, d)
        moved = outcome_distribution(label, (d + delta) % N)
        if not np.array_equal(np.roll(base[:N], delta), moved[:N]):
            return False
        if base[N] != moved[N]:
            return False
    return True

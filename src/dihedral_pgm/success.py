"""Success probabilities, threshold statistics, and information bounds.

Everything here reduces to statistics of the solution counts eta_r^x:

* the N-outcome success probability is
  p = (1 / (2^k N^(k+1))) sum_x (sum_r sqrt(eta_r^x))^2, computed either
  by exact enumeration of Z_N^k or as a seeded Monte Carlo average over
  uniform draws of x;
* the trivial-subgroup identification probability is
  1 - rank(G) / (2N)^k where rank(G) counts occupied (x, p) pairs;
* the parity success probability pairs counts half a period apart,
  p_lsb = 1/2 + (1 / (2 (2N)^k)) sum_x sum_r sqrt(eta_r^x eta_(r+N/2)^x);
* the single-copy accessible-information bound 1 - 1/N comes from the
  spectra of the N 2 x 2 blocks of the single-copy states, and the
  resulting copy lower bound from the displayed entropy inequality.

Each of these is a mean over x of a per-draw value kernel of eta^x, and
every one goes through the single reducer _mean.  Its exact branch, under
EXACT_ENUM_LIMIT, uses three symmetries.  Permuting the coordinates of x
leaves eta^x unchanged; multiplying x by a unit u of Z_N permutes its
residues r -> u r (for even N, u is odd and u N/2 = N/2, so the parity
pairs are kept too); and negating one coordinate x_i shifts eta^x
cyclically by x_i, since complementing bit i maps the solutions of
b . x = r onto those of b . x' = r - x_i.  None of them changes these
statistics.  So it evaluates the kernel once per orbit of all three
(784 representatives in place of 64^3 labels at N = 64, k = 3, 246 in
place of 8^7 at N = 8, k = 7) and weights each value by the number of
labels its row stands for.  It reads the counts block by block from
the orbit walk of subsetsum, which extends each shared prefix's counts
to its children by one step of the recurrence, and sums the weighted
values SHARD at a time, in walk order, merged by fsum.  A
walk to depth K passes through every shallower depth, so an exact sweep
(exact_sweep, and the exact rows of threshold_sweep) reads every k from
one walk to the largest, bitwise as the walk to that k alone.  The
Gram rank and the exact trivial success read the same blocks as exact
integers (_exact_sums); the certifiers read the walk over coordinate
permutations alone (pgm).  The parity counting sums walk nothing: they
are closed forms in N and k (lsb_counting_sums).  Its Monte Carlo
branch averages the seeded shards of SHARD uniform draws of _sharded,
the one Monte Carlo pass (simulate's trials run it too), merged in shard
order, so Monte Carlo results are byte-identical for a given seed
whatever the worker count.  One worker runs its shards inline; two or
more are forked processes of one pool, started at its first use and
reused by every later pass in the process (_pool), so a caller's
tracemalloc does not see their memory.  It checks the bytes one worker
would hold (_mc_guard) before any draw, holds each shard's labels at
the width of N (_draw_labels), and keeps at most 2 shards a worker in
flight, so its memory does not grow with the number of draws.
"""

from __future__ import annotations

import atexit
import math
import os
from collections import deque
from concurrent.futures import BrokenExecutor
# Unused here: perfbench/spans.py traces success.ThreadPoolExecutor.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dihedral import (ScaleLimitError, _bit_dots, _block_labels,
                       _shift_amplitudes)
# Unused here: perfbench/spans.py traces success.iter_all_eta.
from .subsetsum import (CHUNK_BYTES, _count_bytes, _orbit_walk,  # noqa: F401
                        _Roots, _unit_roots, count_eta_batch, iter_all_eta)

#: Shard size shared by the exact enumerator, the MC estimators and the
#: trial simulator; the fsum merge over shards makes totals independent
#: of threading.
SHARD = 4096

#: Hard guard on exact enumeration of Z_N^k.
EXACT_ENUM_LIMIT = 2 ** 26

#: Automatic exact/MC switch used by threshold_sweep.
SWEEP_EXACT_LIMIT = 2 ** 14

#: Memory guard on Monte Carlo, the scale limit of the Monte Carlo
#: commands: the bytes one worker holds (_worker_bytes: a shard's draws
#: at the width of N with one int64 chunk of them, its per-draw results,
#: count_eta_batch's temporaries and the simulator's outcome tables) may
#: be at most this many, checked before any draw.  At SHARD draws the
#: estimators reach every k <= 62 up to N = 2^16, k <= 30 at N = 2^17
#: and k <= 5 at N = 2^18, and the simulator every k <= 62 up to
#: N = 2^15 and k <= 29 at N = 2^16.  Measured peaks of one worker
#: (tracemalloc, SHARD draws, success, parity and both outcome paths,
#: trials streamed to a sink) were 1.0-1.2 MB at N = 1024, k = 12,
#: 1.5-2.5 MB at N = 2^16, k = 16, and 2.8-3.3 MB for the estimators at
#: N = 2^17, k = 30, each below the guard's own estimate; `--threads T`
#: needs T times that, held by T forked worker processes (by the caller
#: itself at T = 1), where the caller's tracemalloc does not see it.
MC_SHARD_BYTES = 2 ** 22


@dataclass(frozen=True)
class ThresholdPoint:
    """One (N, k) success-probability estimate with its provenance."""

    N: int
    k: int
    nu: float
    p: float
    stderr: float
    method: str  # EXACT | MC | CLOSED_FORM


@dataclass(frozen=True)
class InfoBoundResult:
    """Copy lower bound from the accessible-information inequality."""

    N: int
    p: float
    chi_per_copy: float   # left side is k times this
    i_p_lower: float      # right side of the displayed inequality
    k_min: int
    k_min_asymptotic: float  # large-N form p log(N-1) - H(p, 1-p)


def _density(N: int, k: int) -> float:
    if N < 2 or k < 1:
        raise ValueError("need N >= 2 and k >= 1")
    return k / math.log2(N)


# ---------------------------------------------------------------------------
# the reducer: one mean over x in Z_N^k, exact or Monte Carlo
# ---------------------------------------------------------------------------

def _check_size(N: int, k: int) -> None:
    """Reject sizes with no block to walk or draw: N < 1 or k < 1."""
    if N < 1 or k < 1:
        raise ValueError(f"need N >= 1 and k >= 1, got N = {N}, k = {k}")


def _exact_roots(N: int, k: int) -> _Roots:
    """The roots of the walk over one x per orbit of Z_N^k under
    coordinate permutations, the units of Z_N and coordinate negations
    (subsetsum._unit_roots), behind the size check and the enumeration
    guard.  Every exact mean and integer sum here is of a statistic that
    the units and cyclic shifts of eta leave unchanged."""
    _check_size(N, k)
    if N ** k > EXACT_ENUM_LIMIT:
        raise ScaleLimitError(
            f"N^k = {N ** k} exceeds the enumeration guard; use success_mc, "
            "lsb_threshold_check or trivial_success with samples")
    return _unit_roots(N, k)


def _exact_sums(N: int, k: int, terms) -> int:
    """The exact integer sum over x in Z_N^k of terms(eta), an (S,) int64
    array of per-draw integers that the units and cyclic shifts of eta
    leave unchanged, read from the prefix-sharing walk
    (subsetsum._orbit_walk) from _exact_roots(N, k).  A row of the walk
    stands for weights / distinct labels, so each block adds one int64
    dot of weights and terms per value of distinct, summed across blocks
    in Python integers, and the totals are combined as sum_D S_D / D at
    the end, over the lcm of the D in Python integers; a total that is
    not an integer raises."""
    by_distinct = {}
    for w, distinct, eta in _orbit_walk(N, k, _exact_roots(N, k)):
        t = terms(eta)
        for d in range(1, int(distinct.max()) + 1):
            sel = distinct == d
            if sel.any():
                by_distinct[d] = by_distinct.get(d, 0) + int(w[sel] @ t[sel])
    lcm = math.lcm(*by_distinct)
    total = sum(s * (lcm // d) for d, s in by_distinct.items())
    if total % lcm:
        raise ArithmeticError(
            f"orbit-weighted sum {total} / {lcm} is not an integer")
    return total // lcm


def _gram_rank(N: int, k: int) -> int:
    """The number of occupied (x, p) pairs: the support sizes, which a
    cyclic shift of eta keeps, summed over Z_N^k."""
    return _exact_sums(N, k, _support_sizes)


class _ShardSum:
    """The float sum of a stream of values, as exact enumeration takes it:
    the values are buffered SHARD at a time in stream order, each full
    buffer and the last partial one are summed by np.sum, and those sums
    are merged by fsum.  The buffer holds size values, which must be
    SHARD unless the whole stream fits."""

    def __init__(self, size: int):
        self.buf, self.held, self.sums = np.empty(size), 0, []

    def add(self, v: np.ndarray) -> None:
        while v.size:
            take = min(v.size, SHARD - self.held)
            self.buf[self.held:self.held + take] = v[:take]
            v = v[take:]
            self.held += take
            if self.held == SHARD:
                self.sums.append(float(np.sum(self.buf)))
                self.held = 0

    def total(self) -> float:
        if self.held:
            self.sums.append(float(np.sum(self.buf[:self.held])))
            self.held = 0
        return math.fsum(self.sums)


def _exact_means(N: int, k_list, values) -> dict[int, float]:
    """Exact means over x in Z_N^k of the kernel values(eta, N, k), for
    every k in k_list, from one walk to the largest k (_orbit_walk with
    shallowest the smallest), guarded on the largest before any block.

    One x per orbit of Z_N^k under coordinate permutations, the units of
    Z_N and coordinate negations is walked, so values must be unchanged by
    all three: by permutations of the residues r -> u r and by cyclic
    shifts of eta.  The walk to depth K passes through every shallower
    depth with the rows of that depth's own walk, in the same order, so
    each k reads its blocks from the one walk: each value is weighted by
    weights / distinct, the labels its row stands for, and summed by its
    depth's _ShardSum, whose buffer holds min(SHARD, rows of that depth)
    values; the sum is divided by N^k.  The depths between those asked
    for are walked, not reduced."""
    depths = sorted(set(k_list))
    _check_size(N, depths[0])
    roots = _exact_roots(N, depths[-1])
    sums = {k: _ShardSum(min(SHARD, roots.prefixes(k))) for k in depths}
    for k, w, distinct, eta in _orbit_walk(N, depths[-1], roots, depths[0]):
        if k in sums:
            sums[k].add((w / distinct) * values(eta, N, k))
    return {k: s.total() / N ** k for k, s in sums.items()}


def _label_dtype(N: int):
    """The narrowest signed integer type that holds N itself (int8 up to
    N = 127, int16 up to 32767), so that count_eta_batch's N - x of a
    label x in [0, N) stays in range."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if N <= np.iinfo(t).max)


def _draw_rows(k: int) -> int:
    """Rows of k int64 draws that fill CHUNK_BYTES, and at most half a
    shard: a shard's labels at a width of 4 bytes or less and one int64
    chunk of them then hold no more than the shard's int64 labels did."""
    return max(1, min(SHARD // 2, CHUNK_BYTES // (8 * k)))


def _draw_labels(rng: np.random.Generator, N: int, n: int,
                 k: int) -> np.ndarray:
    """n labels uniform on Z_N^k, as an (n, k) array of _label_dtype(N).
    They are drawn _draw_rows(k) rows at a time by int64
    rng.integers(0, N, ...) calls, each copied into the narrow array.
    Consecutive int64 draws continue one stream, so the labels, and the
    generator's state after them, are those of one
    rng.integers(0, N, size=(n, k))."""
    xs = np.empty((n, k), dtype=_label_dtype(N))
    step = _draw_rows(k)
    for lo in range(0, n, step):
        xs[lo:lo + step] = rng.integers(0, N, size=(min(step, n - lo), k))
    return xs


def _worker_bytes(N: int, k: int, samples: int, held: int = 0) -> int:
    """The bytes one Monte Carlo worker holds for a shard of
    min(samples, SHARD) draws of Z_N^k: the (rows, k) draws at their
    width (_label_dtype(N)) and one int64 chunk of them as drawn
    (_draw_labels), four float64 or int64 values a draw (a uniform, the
    values, their deviations and the result), count_eta_batch's
    temporaries (subsetsum._count_bytes, which include one float64 block
    of the reducer), and `held` more bytes that the caller's reducer
    holds at once.  Raises ScaleLimitError beyond k = BATCH_K_LIMIT."""
    rows = min(samples, SHARD)
    width = np.dtype(_label_dtype(N)).itemsize
    return (rows * (k * width + 4 * 8) + min(rows, _draw_rows(k)) * k * 8
            + _count_bytes(rows, N, k) + held)


def _mc_guard(N: int, k: int, samples: int, held=None) -> None:
    """The size check and the memory guard of one Monte Carlo pass, on
    nothing drawn: ScaleLimitError when a worker would hold more than
    MC_SHARD_BYTES (_worker_bytes, with held(N) more bytes when held is
    given), or when k is past int64 counting."""
    _check_size(N, k)
    worker = _worker_bytes(N, k, samples, 0 if held is None else held(N))
    if worker > MC_SHARD_BYTES:
        raise ScaleLimitError(
            f"a Monte Carlo worker would hold {worker} bytes (N = {N}, "
            f"k = {k}), past the memory guard of {MC_SHARD_BYTES} bytes")


#: The worker pool of _sharded, as (pid, workers, executor), or None
#: before its first use with 2 or more workers.
_POOL = None


def _pool(workers: int):
    """The process pool of `workers` workers that _sharded runs shards on.

    It is created on first use and reused by every later pass of the same
    worker count in the same process; another count, or a call from a
    process forked since (another pid), replaces it.  Its workers are
    forked where the platform offers it, so they start in milliseconds
    with the package and its caches already loaded: the pool forks all of
    them at its first submission, from the calling thread, before it
    starts its own manager thread."""
    global _POOL
    if _POOL is None or _POOL[:2] != (os.getpid(), workers):
        # imported here: about 16 ms that a process which never runs two
        # workers does not pay
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        _shutdown_pool()
        context = (multiprocessing.get_context("fork")
                   if "fork" in multiprocessing.get_all_start_methods()
                   else None)
        _POOL = (os.getpid(), workers,
                 ProcessPoolExecutor(workers, mp_context=context))
    return _POOL[2]


@atexit.register
def _shutdown_pool() -> None:
    """Shut down the pool of _pool and join its workers, if this process
    created it; a pool inherited through fork is only dropped.  Run at
    exit too, while the interpreter can still run the executor's own
    clean-up, so no worker outlives the process."""
    global _POOL
    if _POOL is not None and _POOL[0] == os.getpid():
        _POOL[2].shutdown(cancel_futures=True)
    _POOL = None


def _shard(N: int, k: int, work, ss: np.random.SeedSequence, n: int):
    """One shard of _sharded: work(rng, xs) on n labels xs of Z_N^k drawn
    first from rng, the generator of the shard's seed ss."""
    rng = np.random.default_rng(ss)
    return work(rng, _draw_labels(rng, N, n, k))


def _sharded(N: int, k: int, samples: int, seed, threads: int, work,
             held=None):
    """The one Monte Carlo pass: the size check and memory guard
    (_mc_guard, with held(N) the bytes work's reducer holds beyond one
    float64 block) and the worker count (ValueError naming max_workers
    below 1) before any draw, then an iterator over work(rng, xs) per
    shard of SHARD draws, the last partial, in shard order.  Each shard's
    rng is its own child of seed, spawned when the shard is submitted,
    and first draws xs, its (n, k) labels uniform, held at the width of N
    (_draw_labels: the values and the rng's state are those of one int64
    rng.integers call).

    With threads == 1 each shard runs inline as it is asked for.  With
    more, the shards run on the `threads` forked worker processes of the
    reused pool (_pool), so work must pickle (a module-level function, or
    a functools.partial of one) and so must its result; at most
    2 threads shards are in flight (submitted and not yet yielded), so the
    pass holds no more shards, seeds or results than that whatever the
    sample count.  Everything but the shards' work stays in the caller's
    process, so the caller consumes each result while the workers run the
    next shards.  A pass left early cancels the shards not yet started,
    and the pool stays usable; a pass whose worker dies raises
    BrokenProcessPool and drops the pool, so the next pass starts a new
    one."""
    _mc_guard(N, k, samples, held)
    if threads < 1:
        raise ValueError("max_workers must be greater than 0")
    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))

    def shard_args(lo):
        # spawn(1) n times gives the children of spawn(n)
        return N, k, work, root.spawn(1)[0], min(SHARD, samples - lo)

    def results():
        if threads == 1:
            for lo in range(0, samples, SHARD):
                yield _shard(*shard_args(lo))
            return
        pool, pending = _pool(threads), deque()
        try:
            for lo in range(0, samples, SHARD):
                if len(pending) == 2 * threads:
                    yield pending.popleft().result()
                pending.append(pool.submit(_shard, *shard_args(lo)))
            while pending:
                yield pending.popleft().result()
        except BrokenExecutor:
            # a worker died, which leaves the pool unusable: the next
            # pass starts a new one
            _shutdown_pool()
            raise
        finally:
            for future in pending:
                future.cancel()

    return results()


def _mc_moments(values, N: int, k: int, rng, xs) -> tuple[float, float, int]:
    """One shard of _mean: the sum of the kernel values(eta, N, k) over
    the draws xs, their squared deviations about the shard's own mean,
    and their count."""
    v = count_eta_batch(xs, N, lambda rows, eta: values(eta, N, k))
    total = float(np.sum(v))
    dev = v - total / len(v)
    return total, float(np.sum(dev * dev)), len(v)


def _mean(N: int, k: int, values, samples: int | None = None, seed=None,
          threads: int = 1) -> tuple[float, float]:
    """Mean over x in Z_N^k of the kernel values(eta, N, k), which maps
    (S, N) counts to S per-draw values, and its standard error.  The
    kernel is row-wise, so it runs on each cache-sized counting block
    (the orbit walk's when exact, count_eta_batch's otherwise), on counts
    in the work dtype, and no (SHARD, N) table is held.

    With samples None the mean is exact (stderr 0): it is _exact_means at
    the one k, so values must be unchanged by coordinate permutations, the
    units of Z_N and cyclic shifts of eta, and a k read from a sweep's
    walk (exact_sweep) is bitwise the same.
    Otherwise x is drawn uniformly by the one Monte Carlo pass _sharded
    (memory guard, seeded shards, `threads` workers), and the shard
    results are merged in shard order: the mean from the fsum of the
    shard sums, the variance from each shard's squared deviations about
    its own mean, combined by the pairwise update.
    """
    if samples is None:
        return _exact_means(N, [k], values)[k], 0.0
    if samples < 2:
        raise ValueError("need at least 2 samples")

    # Chan et al.'s pairwise merge of (count, mean, squared deviations),
    # shard by shard as the pass yields them
    totals, seen, run_mean, sq_dev = [], 0, 0.0, 0.0
    shard = partial(_mc_moments, values, N, k)
    for total, sq, n in _sharded(N, k, samples, seed, threads, shard):
        totals.append(total)
        delta = total / n - run_mean
        seen += n
        run_mean += delta * n / seen
        sq_dev += sq + delta * delta * (seen - n) * n / seen
    return math.fsum(totals) / samples, math.sqrt(sq_dev / (samples - 1)
                                                   / samples)


# ---------------------------------------------------------------------------
# N-outcome success probability
# ---------------------------------------------------------------------------

def _success_values(eta: np.ndarray, N: int, k: int) -> np.ndarray:
    """Per-draw values (sum_r sqrt(eta_r))^2 / (2^k N), O(N) for every N."""
    root_sums = np.sqrt(eta, dtype=np.float64).sum(axis=1)
    # a block whose value is exactly 1 can round to 1 + 2^-52
    return np.minimum(root_sums ** 2 / (N * float(2 ** k)), 1.0)


def exact_sweep(N: int, k_list) -> list[ThresholdPoint]:
    """Exact success probabilities at every k of k_list, in its order, by
    orbit-weighted enumeration: one walk of Z_N^max(k_list) reads every k
    (_exact_means), and each point is bitwise success_exact(N, k).  The
    enumeration guard is checked on the largest k before any walk."""
    k_list = list(k_list)
    nus = [_density(N, k) for k in k_list]
    if not k_list:
        return []
    p = _exact_means(N, k_list, _success_values)
    return [ThresholdPoint(N, k, nu, p[k], 0.0, "EXACT")
            for k, nu in zip(k_list, nus)]


def success_exact(N: int, k: int) -> ThresholdPoint:
    """Exact success probability by orbit-weighted enumeration of Z_N^k:
    the one-k exact_sweep."""
    return exact_sweep(N, [k])[0]


def success_single_copy(N: int) -> ThresholdPoint:
    """Closed form (2N - 1) / N^2 for a single copy."""
    return ThresholdPoint(N, 1, _density(N, 1), (2 * N - 1) / N ** 2,
                          0.0, "CLOSED_FORM")


def success_mc(N: int, k: int, samples: int, seed,
               threads: int = 1) -> ThresholdPoint:
    """Unbiased Monte Carlo estimate of the success probability.

    Draws x uniformly from Z_N^k and averages (sum_r sqrt(eta_r))^2
    / (2^k N); deterministic for a given seed.
    """
    nu = _density(N, k)
    p, stderr = _mean(N, k, _success_values, samples, seed, threads)
    return ThresholdPoint(N, k, nu, p, stderr, "MC")


def _support_sizes(eta: np.ndarray) -> np.ndarray:
    """Per-draw support dimensions: the occupied residues r, eta_r > 0."""
    return np.count_nonzero(eta, axis=1)


def _support_values(eta: np.ndarray, N: int, k: int) -> np.ndarray:
    """Per-draw support fractions support_dim / 2^k."""
    return _support_sizes(eta) / float(2 ** k)


def trivial_success(N: int, k: int, samples: int | None = None,
                    seed=None) -> float:
    """Probability that k copies of the maximally mixed state land on the
    leftover outcome: 1 - rank(G)/(2N)^k.

    Exact when samples is None (guarded): the exact rational
    ((2N)^k - rank) / (2N)^k from the integer Gram rank, rounded once by
    Python's integer division.  Otherwise a Monte Carlo estimate of
    E_x[support_dim] / 2^k.
    """
    _density(N, k)
    if samples is None:
        dim = (2 * N) ** k
        return (dim - _gram_rank(N, k)) / dim
    return 1.0 - _mean(N, k, _support_values, samples, seed)[0]


def threshold_sweep(N: int, k_list, samples: int, seed,
                    threads: int = 1) -> list[ThresholdPoint]:
    """One success-probability point per k: exact when N^k is small
    enough, all such k read from one walk (exact_sweep), and Monte Carlo
    (with a per-k child seed) otherwise.  Every Monte Carlo k passes the
    memory guard (_mc_guard) before the walk or any draw, so a k past the
    guard fails the sweep before the others are computed."""
    k_list = list(k_list)
    children = np.random.SeedSequence(seed).spawn(len(k_list))
    exact = [k for k in k_list if N ** k <= SWEEP_EXACT_LIMIT]
    for k in k_list:
        if k not in exact:
            _mc_guard(N, k, samples)
    points = dict(zip(exact, exact_sweep(N, exact)))
    return [points[k] if k in points
            else success_mc(N, k, samples, child, threads)
            for k, child in zip(k_list, children)]


# ---------------------------------------------------------------------------
# parity (least significant bit) success probability
# ---------------------------------------------------------------------------

def _lsb_values(eta: np.ndarray, N: int, k: int) -> np.ndarray:
    """Per-draw parity success values
    (1/2)(1 + sum_r sqrt(eta_r eta_(r+N/2)) / 2^k)."""
    prod = np.multiply(eta, np.roll(eta, -(N // 2), axis=1), dtype=np.float64)
    cross = np.sqrt(prod, out=prod).sum(axis=1)
    return 0.5 * (1.0 + cross / float(2 ** k))


def lsb_upper_bound(N: int, k: int) -> float:
    """Analytic ceiling (1/2)(1 + 2^k/N + 6/N + 3/2^k) on the parity
    success probability."""
    return 0.5 * (1.0 + 2 ** k / N + 6 / N + 3 / 2 ** k)


def lsb_success_exact(N: int, k: int) -> float:
    """Exact parity success probability by enumeration (N even)."""
    _density(N, k)
    if N % 2 != 0:
        raise ValueError("N must be even")
    return _mean(N, k, _lsb_values)[0]


def lsb_threshold_check(N: int, k: int, samples: int, seed,
                        threads: int = 1) -> tuple[ThresholdPoint, float]:
    """Monte Carlo parity success estimate together with its analytic
    upper bound; the estimate must sit below bound + sampling noise."""
    nu = _density(N, k)
    if N % 2 != 0:
        raise ValueError("N must be even")
    p, stderr = _mean(N, k, _lsb_values, samples, seed, threads)
    return ThresholdPoint(N, k, nu, p, stderr, "MC"), lsb_upper_bound(N, k)


def lsb_counting_sums(N: int, k: int) -> tuple[int, int, int]:
    """Exact integer sums behind the parity bound, N even, in closed form:
    sum_x eta_0 = N^k + (2^k - 1) N^(k-1), sum_x eta_(N/2) =
    (2^k - 1) N^(k-1) and sum_x sum_(r != 0, N/2) eta_r eta_(-r) =
    (N - 2)(2^k - 1)(2^k - 2) N^(k-2), in Python integers, with no walk.

    They count solutions x in Z_N^k: sum_x eta_s is the number of pairs
    (x, b) with b . x = s, sum_x eta_s^2 that of triples (x, b, b') with
    b . x = b' . x = s, and sum_x sum_r eta_r eta_(-r) that of triples
    with (b + b') . x = 0.  One congruence b . x = s with b != 0 has
    N^(k-1) solutions, since some coefficient is 1, and two with
    b != b', both nonzero, have N^(k-2), since some x_i is in one and not
    the other.  So the triples over every r number N^k (b = b' = 0)
    + (4^k - 2^k) N^(k-1) (b != b') + 2 (2^k - 1) N^(k-1) (b = b' != 0,
    where 2 b . x = 0 holds for b . x = 0 and N/2), sum_x eta_0^2 is
    N^k + 3 (2^k - 1) N^(k-1) + (2^k - 1)(2^k - 2) N^(k-2) and
    sum_x eta_(N/2)^2 is (2^k - 1) N^(k-1) + (2^k - 1)(2^k - 2) N^(k-2);
    the first less the other two is the cross sum, 0 at k = 1 and at
    N = 2.
    """
    if N % 2 != 0:
        raise ValueError("N must be even")
    _check_size(N, k)
    others = (2 ** k - 1) * N ** (k - 1)
    cross = (N - 2) * (2 ** k - 1) * (2 ** k - 2) * N ** max(k - 2, 0)
    return N ** k + others, others, cross


# ---------------------------------------------------------------------------
# information-theoretic bounds
# ---------------------------------------------------------------------------

def _entropy_bits(spectrum: np.ndarray) -> float:
    lam = spectrum[spectrum > 1e-14]
    return float(-(lam * np.log2(lam)).sum())


def chi_single_copy(N: int) -> float:
    """Accessible-information ceiling S(mean) - mean(S) of the single-copy
    ensemble over all N shifts; equals 1 - 1/N.

    Both spectra are read from the N 2 x 2 blocks of the conditional
    Fourier transform: the state for shift d is (1/N) times the direct
    sum over x in Z_N of |phi_(x,d)><phi_(x,d)|, with amplitudes
    omega^(d b x) / sqrt(2) for b in {0, 1} (block_state's amplitudes at
    k = 1).  Every shift has the entropy of shift 0, since the
    automorphism that fixes s and sends r to r s^d carries one state to
    the other, and the mixture's block x is the mean of the shifts'
    blocks.  The mixture spectrum is {1/N (once), 1/2N (2N-2 times),
    0 (once)} and each shifted state is a flat rank-N mixture, both
    checked by the two batched (N, 2, 2) eigensolves this routine
    performs.
    """
    if 2 * N > 512:
        raise ScaleLimitError("dense eigensolve guard is 2N <= 512")
    sums = _bit_dots(_block_labels(N, 1), N)
    # psi[d, x] is block x of the state for shift d
    psi = np.stack([_shift_amplitudes(N, d, sums, 1) for d in range(N)])
    blocks = psi[..., :, None] * psi.conj()[..., None, :] / N
    s_mix = _entropy_bits(np.linalg.eigvalsh(blocks.mean(axis=0)))
    return s_mix - _entropy_bits(np.linalg.eigvalsh(blocks[0]))


def _binary_entropy(p: float) -> float:
    total = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            total -= q * math.log2(q)
    return total


def info_lower_bound(N: int, p: float) -> InfoBoundResult:
    """Smallest k with k (1 - 1/N) >= log N - (1-p) log(N-1) - H(p, 1-p).

    This is deliberately the displayed inequality evaluated verbatim;
    for constant p it is far weaker than the log N threshold.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if N < 2:
        raise ValueError("N must be >= 2")
    h = _binary_entropy(p)
    i_p = math.log2(N) - (1.0 - p) * math.log2(N - 1) - h
    rate = 1.0 - 1.0 / N
    k_min = max(1, math.ceil(i_p / rate)) if i_p > 0 else 1
    asymptotic = p * math.log2(N - 1) - h
    return InfoBoundResult(N, p, rate, i_p, k_min, asymptotic)

"""End-to-end simulation of the block-by-block measurement protocol.

A trial draws the block label x (uniform on Z_N^k for every hidden
subgroup), computes the exact N+1-outcome distribution inside that block
from the solution counts alone, and samples an outcome by inverse CDF.
Within block x the outcome probabilities for a hidden shift d are

    P(j | x) = |sum_p omega^((d-j) p) sqrt(eta_p^x)|^2 / (N 2^k),

which depends on j only through (d - j) mod N; the trivial outcome has
probability zero.  For the trivial subgroup every j is equally likely at
support_dim / (N 2^k) and the leftover outcome absorbs the rest.

Nothing here materializes 2^k-dimensional vectors.  For a shift, one
real Fourier transform of sqrt(eta) per block is all it takes: sqrt(eta)
is real, so the spectrum is Hermitian and its half m = 0 .. N // 2 holds
every |.|^2 the outcomes read; a shift's P(j) reads it at fold(d - j)
from at most three forward or reversed slices (_shift_plan), copied
into one CDF buffer and summed there.  For the trivial subgroup the
support size of eta is all it takes.  That is what lets the simulator
run at k around 20 and N around 1024.  Trials draw their labels in the
estimators' one Monte Carlo pass, success._sharded.  A shard sends back
its outcomes alone, at the width of N (success._label_dtype), which
run_trials hands to a sink when it streams them; it sends its labels
too only when run_trials keeps the trial columns.
"""

from __future__ import annotations

# Unused here: perfbench/spans.py traces simulate.ThreadPoolExecutor.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from contextlib import closing
from functools import partial

import numpy as np

from .dihedral import TRIVIAL, BlockLabel
from .subsetsum import CHUNK_BYTES, count_eta_batch
from .success import _label_dtype, _sharded, _support_sizes


def _trivial_distributions(support: np.ndarray, N: int, k: int) -> np.ndarray:
    """Trivial-subgroup outcome probabilities, one row per support size:
    support / (N 2^k) for every j, and the trivial outcome the rest."""
    out = np.empty((support.shape[0], N + 1))
    out[:, :N] = (support / (N * float(2 ** k)))[:, None]
    out[:, N] = 1.0 - support / float(2 ** k)
    return out


def _shift_spectrum(eta: np.ndarray, N: int, k: int) -> np.ndarray:
    """W[m] = |sum_p omega^(mp) sqrt(eta_p)|^2 / (N 2^k) for m = 0 .. N // 2,
    one row per draw, shared by every shift: P(j) only reads it at index
    (d - j) mod N, so shift covariance is exact by construction.
    sqrt(eta) is real, so W[m] = W[N - m] and the half spectrum of one
    real FFT holds all of W.  W is built in place, so beside the complex
    spectrum it holds one float64 table of half the width."""
    amps = np.fft.rfft(np.sqrt(eta, dtype=np.float64), axis=1)
    W = amps.real ** 2
    W += amps.imag ** 2
    W /= N * float(2 ** k)
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


def _unfold(W: np.ndarray, plan, P: np.ndarray) -> None:
    """Write P(j) = W[fold(d - j)] into the first N columns of P, row by
    row, from the runs of _shift_plan(N, d)."""
    for j0, j1, cols in plan:
        P[:, j0:j1] = W[:, cols]


def _distributions(eta: np.ndarray, N: int, k: int, hidden) -> np.ndarray:
    """Outcome probabilities, rows = draws, columns = (j in Z_N, trivial)."""
    if hidden == TRIVIAL:
        return _trivial_distributions(_support_sizes(eta), N, k)
    out = np.zeros((eta.shape[0], N + 1))
    _unfold(_shift_spectrum(eta, N, k), _shift_plan(N, int(hidden) % N), out)
    return out


def _outcome_rows(N: int) -> int:
    """Rows of the (rows, N + 1) float64 tables _outcomes and
    _trivial_outcomes build at once: about CHUNK_BYTES / 2 a table."""
    return max(1, CHUNK_BYTES // (16 * N))


def _outcome_bytes(N: int) -> int:
    """The bytes the outcome reducers hold at once beyond a value
    kernel's one float64 block: for _outcome_rows(N) rows, the CDF
    buffer, N float64s a row, and the complex half spectrum, N // 2 + 1
    complex128s a row.  The square roots of eta, and after them the real
    half spectrum with its temporary, fit in that float64 block (where
    the block is one row, the latter is 16 bytes more, which the casting
    buffers of count_eta_batch's estimate hold spare then).  The trivial
    subgroup's two (rows, N + 1) tables are made after counting, when
    none of count_eta_batch's temporaries is held."""
    return _outcome_rows(N) * (N * 8 + (N // 2 + 1) * 16)


def _outcomes(eta: np.ndarray, N: int, k: int, plan, u: np.ndarray,
              cdf: np.ndarray) -> np.ndarray:
    """Inverse-CDF outcomes for a hidden shift d, one per row of eta, from
    one uniform u per row: the number of cumulative probabilities at or
    below u (ties resolve toward smaller j), capped at N, the trivial
    outcome.  plan is _shift_plan(N, d), and cdf a float64 buffer of N
    columns and min(_outcome_rows(N), rows of eta) rows or more, both
    made once for a shard.  The trivial subgroup takes _trivial_outcomes.

    count_eta_batch hands the reducer blocks of CHUNK_BYTES // (8 N)
    rows; the tables are built _outcome_rows(N) = CHUNK_BYTES // (16 N)
    rows at a time, half such a block, so the complex128 half spectrum
    and the CDF take about CHUNK_BYTES / 2 each whatever the work dtype
    of eta.  With larger blocks (whole counting chunks, or half of them)
    the allocator handed back and faulted in their pages block after
    block: 9e4 page faults and up to 1.5x the time for the 10000 trials
    of simulate at N = 1024, k = 20, against 3e3-3e4.  Each row's P(j)
    is copied from the runs of the plan into the buffer, in the order of
    j, and summed there in place, so the cumulative sums are those of the
    row of _distributions.  Its trivial column, always 0, is left out:
    its cumulative probability equals the last one, so it changes no
    count once capped at N."""
    S = eta.shape[0]
    step = _outcome_rows(N)
    outcomes = np.empty(S, dtype=np.int64)
    for lo in range(0, S, step):
        rows = slice(lo, lo + step)
        W = _shift_spectrum(eta[rows], N, k)
        P = cdf[:W.shape[0]]
        _unfold(W, plan, P)
        np.cumsum(P, axis=1, out=P)
        outcomes[rows] = np.count_nonzero(P <= u[rows, None], axis=1)
    return np.minimum(outcomes, N)


def _trivial_outcomes(support: np.ndarray, N: int, k: int,
                      u: np.ndarray) -> np.ndarray:
    """Inverse-CDF outcomes for the trivial subgroup, from the support
    sizes alone: one cumulative row of _distributions's trivial table per
    distinct support size, summed _outcome_rows(N) rows at a time,
    searched for the u of the rows with that size.  The row never
    decreases, so searchsorted(side="right") is its number of entries at
    or below u, as the inverse CDF over each draw's own table counts
    them."""
    outcomes = np.empty(support.shape[0], dtype=np.int64)
    sizes = np.unique(support)
    step = _outcome_rows(N)
    for lo in range(0, sizes.size, step):
        block = sizes[lo:lo + step]
        cdfs = np.cumsum(_trivial_distributions(block, N, k), axis=1)
        for size, cdf in zip(block, cdfs):
            rows = support == size
            outcomes[rows] = np.searchsorted(cdf, u[rows], side="right")
    return np.minimum(outcomes, N)


def outcome_distribution(label: BlockLabel, hidden) -> np.ndarray:
    """Exact within-block outcome probabilities for one label, length
    N + 1 with the trivial outcome last."""
    eta = count_eta_batch(np.array([label.x]), label.N)
    return _distributions(eta, label.N, label.k, hidden)[0]


def _trial_shard(N: int, k: int, hidden, rng, xs) -> np.ndarray:
    """One shard of run_trials: the outcomes of the draws xs, at the width
    of N (_label_dtype), from one uniform per draw drawn after them.
    hidden is compared to TRIVIAL by value: a str does not keep its
    identity when the shard is sent to a worker process."""
    u = rng.random(len(xs))
    if hidden == TRIVIAL:
        support = count_eta_batch(
            xs, N, lambda rows, eta: _support_sizes(eta))
        outcomes = _trivial_outcomes(support, N, k, u)
    else:
        plan = _shift_plan(N, int(hidden) % N)
        cdf = np.empty((min(_outcome_rows(N), len(xs)), N))
        outcomes = count_eta_batch(
            xs, N, lambda rows, eta: _outcomes(eta, N, k, plan, u[rows], cdf))
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
    are kept.  Outcomes are drawn by inverse CDF on the N+1 probabilities
    with one uniform per trial (ties resolve toward smaller j), drawn
    after the shard's labels.  Trials run in the estimators' Monte Carlo
    pass, success._sharded (memory guard, success.SHARD draws a shard,
    split seeds, `threads` workers), merged in shard order.  Within a
    shard the outcomes for a shift are count_eta_batch's reducer
    (_outcomes): each cache-sized counting chunk is turned into its
    outcomes block by block while it is still in cache, so a worker
    holds its draws plus one chunk's tables and one block's outcome
    tables, which the memory guard counts (_outcome_bytes), never a
    (SHARD, N) table; the shard reads the half spectrum through one
    slice plan and sums it in one CDF buffer (_shift_plan), both made
    once.  For the trivial subgroup the reducer keeps only the support
    sizes, and the shard's outcomes come from one cumulative row per
    distinct size (_trivial_outcomes).  Any hidden equal to TRIVIAL names
    the trivial subgroup, whatever object it is.
    """
    if trials < 1:
        raise ValueError("need at least one trial")

    shard = _labelled_trial_shard if sink is None else _trial_shard
    shards = _sharded(N, k, trials, seed, threads,
                      partial(shard, N, k, hidden), _outcome_bytes)
    columns = None
    if sink is None:
        columns = {"labels": np.empty((trials, k), dtype=np.int64),
                   "outcomes": np.empty(trials, dtype=np.int64)}
    want = N if hidden == TRIVIAL else int(hidden) % N
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

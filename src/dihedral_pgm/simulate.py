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
every |.|^2 the outcomes read.  For the trivial subgroup the support
size of eta is all it takes.  That is what lets the simulator run at k
around 20 and N around 1024.  Trials draw their labels in the
estimators' one Monte Carlo pass, success._sharded.
"""

from __future__ import annotations

# Unused here: perfbench/spans.py traces simulate.ThreadPoolExecutor.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from contextlib import closing
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dihedral import TRIVIAL, BlockLabel
from .subsetsum import CHUNK_BYTES, count_eta_batch
from .success import _sharded, _support_sizes


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact outcome probabilities within one block (trivial outcome last)."""

    label: BlockLabel
    hidden: object
    probs: np.ndarray  # length N + 1


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


def _shift_columns(N: int, d: int) -> np.ndarray:
    """The column of W that P(j) reads for a shift d, for j in Z_N:
    min(m, N - m) for m = (d - j) mod N."""
    m = (d - np.arange(N)) % N
    return np.minimum(m, N - m)


def _distributions(eta: np.ndarray, N: int, k: int, hidden) -> np.ndarray:
    """Outcome probabilities, rows = draws, columns = (j in Z_N, trivial)."""
    if hidden is TRIVIAL:
        return _trivial_distributions(_support_sizes(eta), N, k)
    out = np.zeros((eta.shape[0], N + 1))
    cols = _shift_columns(N, int(hidden) % N)
    out[:, :N] = _shift_spectrum(eta, N, k)[:, cols]
    return out


def _outcome_rows(N: int) -> int:
    """Rows of the (rows, N + 1) float64 tables _outcomes and
    _trivial_outcomes build at once: about CHUNK_BYTES / 2 a table."""
    return max(1, CHUNK_BYTES // (16 * N))


def _outcome_bytes(N: int) -> int:
    """The bytes the outcome reducers hold at once beyond a value
    kernel's one float64 block: two (rows, N + 1) float64 tables of
    _outcome_rows(N) rows (the complex half spectrum and the table built
    from it, or a table and its cumulative sums) and the column index of
    a shift."""
    return (2 * _outcome_rows(N) + 1) * (N + 1) * 8


def _outcomes(eta: np.ndarray, N: int, k: int, hidden,
              u: np.ndarray) -> np.ndarray:
    """Inverse-CDF outcomes, one per row of eta, from one uniform u per
    row: the number of cumulative probabilities at or below u (ties
    resolve toward smaller j), capped at N, the trivial outcome.

    count_eta_batch hands the reducer blocks of CHUNK_BYTES // (8 N)
    rows; the tables are built _outcome_rows(N) = CHUNK_BYTES // (16 N)
    rows at a time, half such a block, so the complex128 half spectrum
    and each float64 table take about CHUNK_BYTES / 2 whatever the work
    dtype of eta.  With larger blocks (whole counting chunks, or half of
    them) the allocator handed back and faulted in their pages block
    after block: 9e4 page faults and up to 1.5x the time for the 10000
    trials of simulate at N = 1024, k = 20, against 3e3-3e4.  For a shift
    the trivial column of _distributions, always 0, is left out: its
    cumulative probability equals the last one, so it changes no count
    once capped at N."""
    S = eta.shape[0]
    step = _outcome_rows(N)
    outcomes = np.empty(S, dtype=np.int64)
    cols = None if hidden is TRIVIAL else _shift_columns(N, int(hidden) % N)
    for lo in range(0, S, step):
        rows = slice(lo, lo + step)
        if cols is None:
            cdf = np.cumsum(_distributions(eta[rows], N, k, hidden), axis=1)
        else:
            cdf = np.cumsum(_shift_spectrum(eta[rows], N, k)[:, cols], axis=1)
        outcomes[rows] = np.count_nonzero(cdf <= u[rows, None], axis=1)
    return np.minimum(outcomes, N)


def _trivial_outcomes(support: np.ndarray, N: int, k: int,
                      u: np.ndarray) -> np.ndarray:
    """The outcomes _outcomes gives for the trivial subgroup, from the
    support sizes alone: one cumulative row per distinct support size, by
    the same cumsum in blocks of _outcomes's size, searched for the u of
    the rows with that size.  The row never decreases, so
    searchsorted(side="right") is its number of entries at or below u."""
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


def outcome_distribution(label: BlockLabel, hidden) -> OutcomeDistribution:
    """Exact within-block outcome distribution for one label."""
    eta = count_eta_batch(np.array([label.x]), label.N)
    probs = _distributions(eta, label.N, label.k, hidden)[0]
    return OutcomeDistribution(label, hidden, probs)


def _trial_shard(N: int, k: int, shift, rng, xs):
    """One shard of run_trials: the draws xs and their outcomes, from one
    uniform per draw drawn after them.  shift is the hidden shift, or
    None for the trivial subgroup: TRIVIAL is a str, which does not keep
    its identity when the shard is sent to a worker process."""
    u = rng.random(len(xs))
    if shift is None:
        support = count_eta_batch(
            xs, N, lambda rows, eta: _support_sizes(eta))
        return xs, _trivial_outcomes(support, N, k, u)
    return xs, count_eta_batch(
        xs, N, lambda rows, eta: _outcomes(eta, N, k, shift, u[rows]))


def run_trials(N: int, k: int, hidden, trials: int, seed,
               threads: int = 1, sink=None
               ) -> tuple[float, dict[str, np.ndarray] | None]:
    """Simulate full measurement trials and return (success rate, columns).

    The columns are "labels", the (trials, k) int64 block labels x, and
    "outcomes", the (trials,) outcomes j with N standing for the trivial
    outcome.  Given a sink, no columns are kept and None stands in their
    place: sink(labels, outcomes) is called once a shard, in shard order,
    with the shard's labels at the width they were drawn
    (success._label_dtype(N)) and its outcomes, as the pass yields them,
    so a caller that streams them holds nothing that grows with the
    trial count.  Outcomes are drawn by inverse CDF on the N+1
    probabilities with one uniform per trial (ties resolve toward smaller
    j), drawn after the shard's labels.  Trials run in the estimators'
    Monte Carlo pass, success._sharded (memory guard, success.SHARD draws
    a shard, split seeds, `threads` workers), merged in shard order.
    Within a shard the outcomes for a shift are count_eta_batch's reducer
    (_outcomes): each cache-sized counting chunk is turned into its
    outcomes block by block while it is still in cache, so a worker holds
    its draws plus one chunk's tables and one block's outcome tables,
    which the memory guard counts (_outcome_bytes), never a (SHARD, N)
    table.  For the trivial subgroup the reducer keeps only the support
    sizes, and the shard's outcomes come from one cumulative row per
    distinct size (_trivial_outcomes), equal to _outcomes's.
    """
    if trials < 1:
        raise ValueError("need at least one trial")

    shift = None if hidden is TRIVIAL else hidden
    shards = _sharded(N, k, trials, seed, threads,
                      partial(_trial_shard, N, k, shift), _outcome_bytes)
    columns = None
    if sink is None:
        columns = {"labels": np.empty((trials, k), dtype=np.int64),
                   "outcomes": np.empty(trials, dtype=np.int64)}
    want = N if hidden is TRIVIAL else int(hidden) % N
    hits, lo = 0, 0
    # a sink that raises closes the pass at once, which cancels its
    # shards not yet started
    with closing(shards):
        for xs, outcomes in shards:
            hits += int(np.count_nonzero(outcomes == want))
            if columns is None:
                sink(xs, outcomes)
            else:
                columns["labels"][lo:lo + len(xs)] = xs
                columns["outcomes"][lo:lo + len(xs)] = outcomes
            lo += len(xs)
    return hits / trials, columns


def shift_covariance_check(N: int, k: int, samples: int, seed) -> bool:
    """Outcome distributions for shifted hidden values are exact index
    shifts of one another: P_d(j) == P_(d+delta)(j+delta), bitwise."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        label = BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        d = int(rng.integers(N))
        delta = int(rng.integers(N))
        base = outcome_distribution(label, d).probs
        moved = outcome_distribution(label, (d + delta) % N).probs
        if not np.array_equal(np.roll(base[:N], delta), moved[:N]):
            return False
        if base[N] != moved[N]:
            return False
    return True

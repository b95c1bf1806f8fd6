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
* the single-copy accessible-information bound 1 - 1/N comes from dense
  2N-dimensional spectra, and the resulting copy lower bound from the
  displayed entropy inequality.

Each of these is a mean over x of a per-draw value kernel of eta^x, and
every one goes through the single reducer _mean: it either enumerates
Z_N^k exactly under EXACT_ENUM_LIMIT, or averages seeded shards of SHARD
uniform draws merged in shard order, so Monte Carlo results are
byte-identical for a given seed regardless of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dihedral import (ScaleLimitError, hidden_subgroup_state,
                       subgroup_elements)
from .subsetsum import count_eta_batch, iter_all_eta

#: Shard size shared by the exact enumerator, the MC estimators and the
#: trial simulator; the fsum merge over shards makes totals independent
#: of threading.
SHARD = 4096

#: Hard guard on exact enumeration of Z_N^k.
EXACT_ENUM_LIMIT = 2 ** 26

#: Automatic exact/MC switch used by threshold_sweep.
SWEEP_EXACT_LIMIT = 2 ** 14


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

def _all_eta(N: int, k: int):
    """eta over all of Z_N^k in SHARD-row chunks, behind the enumeration
    guard (checked on the call, not on the first chunk)."""
    if N ** k > EXACT_ENUM_LIMIT:
        raise ScaleLimitError(
            f"N^k = {N ** k} exceeds the enumeration guard; use success_mc, "
            "lsb_threshold_check or trivial_success with samples")
    return (eta for _, eta in iter_all_eta(N, k, batch=SHARD))


def _shards(samples: int, seed) -> list:
    """The RNG shard plan: (child seed, draw count) per SHARD draws, the
    last shard partial, in merge order."""
    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))
    counts = [min(SHARD, samples - lo) for lo in range(0, samples, SHARD)]
    return list(zip(root.spawn(len(counts)), counts))


def _mean(N: int, k: int, values, samples: int | None = None, seed=None,
          threads: int = 1) -> tuple[float, float]:
    """Mean over x in Z_N^k of the kernel values(eta, N, k), which maps
    (S, N) counts to S per-draw values, and its standard error.

    With samples None the mean is exact (stderr 0): Z_N^k is enumerated
    in SHARD chunks and the chunk sums are merged by fsum.  Otherwise x
    is drawn uniformly in the seeded shards of _shards, run on up to
    `threads` workers and merged in shard order.
    """
    if samples is None:
        sums = [float(np.sum(values(eta, N, k))) for eta in _all_eta(N, k)]
        return math.fsum(sums) / N ** k, 0.0
    if samples < 2:
        raise ValueError("need at least 2 samples")

    def shard(job):
        ss, n = job
        xs = np.random.default_rng(ss).integers(0, N, size=(n, k))
        v = values(count_eta_batch(xs, N), N, k)
        return float(np.sum(v)), float(np.sum(v * v))

    jobs = _shards(samples, seed)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(shard, jobs))
    else:
        parts = [shard(j) for j in jobs]
    mean = math.fsum(s for s, _ in parts) / samples
    var = max(math.fsum(q for _, q in parts) - samples * mean * mean, 0.0)
    return mean, math.sqrt(var / (samples - 1) / samples)


# ---------------------------------------------------------------------------
# N-outcome success probability
# ---------------------------------------------------------------------------

def _success_values(eta: np.ndarray, N: int, k: int) -> np.ndarray:
    """Per-draw values (sum_r sqrt(eta_r))^2 / (2^k N), O(N) for every N."""
    root_sums = np.sqrt(eta.astype(np.float64)).sum(axis=1)
    return root_sums ** 2 / (N * float(2 ** k))


def success_exact(N: int, k: int) -> ThresholdPoint:
    """Exact success probability by full enumeration of Z_N^k."""
    nu = _density(N, k)
    p, _ = _mean(N, k, _success_values)
    return ThresholdPoint(N, k, nu, p, 0.0, "EXACT")


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


def _support_values(eta: np.ndarray, N: int, k: int) -> np.ndarray:
    """Per-draw support fractions support_dim / 2^k."""
    return np.count_nonzero(eta, axis=1) / float(2 ** k)


def trivial_success(N: int, k: int, samples: int | None = None,
                    seed=None) -> float:
    """Probability that k copies of the maximally mixed state land on the
    leftover outcome: 1 - rank(G)/(2N)^k.

    Exact by enumeration when samples is None (guarded); otherwise a
    Monte Carlo estimate of E_x[support_dim] / 2^k.
    """
    _density(N, k)
    return 1.0 - _mean(N, k, _support_values, samples, seed)[0]


def threshold_sweep(N: int, k_list, samples: int, seed,
                    threads: int = 1) -> list[ThresholdPoint]:
    """One success-probability point per k: exact when N^k is small
    enough, Monte Carlo (with a per-k child seed) otherwise."""
    k_list = list(k_list)
    children = np.random.SeedSequence(seed).spawn(len(k_list))
    points = []
    for k, child in zip(k_list, children):
        if N ** k <= SWEEP_EXACT_LIMIT:
            points.append(success_exact(N, k))
        else:
            points.append(success_mc(N, k, samples, child, threads))
    return points


# ---------------------------------------------------------------------------
# parity (least significant bit) success probability
# ---------------------------------------------------------------------------

def _lsb_values(eta: np.ndarray, N: int, k: int) -> np.ndarray:
    """Per-draw parity success values
    (1/2)(1 + sum_r sqrt(eta_r eta_(r+N/2)) / 2^k)."""
    ef = eta.astype(np.float64)
    paired = np.roll(ef, -(N // 2), axis=1)
    cross = np.sqrt(ef * paired).sum(axis=1)
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
    """Exact integer sums behind the parity bound, by full enumeration:
    sum_x eta_0, sum_x eta_(N/2), and sum_x sum_(r != 0, N/2) eta_r eta_(-r).
    """
    if N % 2 != 0:
        raise ValueError("N must be even")
    sum0 = 0
    sum_half = 0
    cross = 0
    half = N // 2
    keep = np.setdiff1d(np.arange(N, dtype=np.int64), (0, half))
    for eta in _all_eta(N, k):
        sum0 += int(eta[:, 0].sum())
        sum_half += int(eta[:, half].sum())
        mirrored = eta[:, (-keep) % N]
        cross += int((eta[:, keep] * mirrored).sum())
    return sum0, sum_half, cross


# ---------------------------------------------------------------------------
# information-theoretic bounds
# ---------------------------------------------------------------------------

def _entropy_bits(spectrum: np.ndarray) -> float:
    lam = spectrum[spectrum > 1e-14]
    return float(-(lam * np.log2(lam)).sum())


def chi_single_copy(N: int) -> float:
    """Accessible-information ceiling S(mean) - mean(S) of the single-copy
    ensemble over all N shifts; equals 1 - 1/N.

    The mixture spectrum is {1/N (once), 1/2N (2N-2 times), 0 (once)} and
    each shifted state is a flat rank-N mixture, both checked by the
    dense eigensolve this routine performs.
    """
    if 2 * N > 512:
        raise ScaleLimitError("dense eigensolve guard is 2N <= 512")
    states = [hidden_subgroup_state(subgroup_elements("order2", N, d=d))
              for d in range(N)]
    mixture = sum(states) / N
    s_mix = _entropy_bits(np.linalg.eigvalsh(mixture))
    s_each = [_entropy_bits(np.linalg.eigvalsh(rho)) for rho in states]
    return s_mix - math.fsum(s_each) / N


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

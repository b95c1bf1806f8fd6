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
EXACT_ENUM_LIMIT, uses that permuting the coordinates of x leaves eta^x
unchanged: it evaluates the kernel once per multiset of coordinates (the
nondecreasing x, C(N+k-1, k) of them in place of N^k) and weights each
value by the exact size of its orbit.  Their counts come from the orbit
walk of subsetsum, which extends each shared prefix's counts to its
children by one step of the recurrence.  Its Monte Carlo branch averages
the seeded shards of SHARD uniform draws of _sharded, the one Monte Carlo
pass (simulate's trials run it too), merged in shard order, so Monte
Carlo results are byte-identical for a given seed whatever the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dihedral import (ScaleLimitError, _bit_dots, _block_labels,
                       _shift_amplitudes)
# Unused here: perfbench/spans.py traces success.iter_all_eta.
from .subsetsum import (_iter_orbit_eta, count_eta_batch,  # noqa: F401
                        iter_all_eta)

#: Shard size shared by the exact enumerator, the MC estimators and the
#: trial simulator; the fsum merge over shards makes totals independent
#: of threading.
SHARD = 4096

#: Hard guard on exact enumeration of Z_N^k.
EXACT_ENUM_LIMIT = 2 ** 26

#: Automatic exact/MC switch used by threshold_sweep.
SWEEP_EXACT_LIMIT = 2 ** 14

#: Memory guard on Monte Carlo, the scale limit of the Monte Carlo
#: commands: N * min(samples, SHARD) * 8 may be at most this many bytes,
#: so N <= 4096 at SHARD draws.  It bounds no table actually held: the
#: value kernels run on each cache-sized counting chunk, so at the limit
#: a worker peaks at 2.3-3.3 MB for success and parity (tracemalloc,
#: N = 4096, k = 10..30), and `--threads T` needs a few MB a worker.
MC_SHARD_BYTES = 2 ** 27


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

def _all_eta(N: int, k: int, reduce):
    """(weights, reduced) chunks of at most SHARD rows over one x per
    orbit of Z_N^k under coordinate permutations, each weighted by its
    exact orbit size, behind the enumeration guard (checked on the call,
    not on the first chunk); reduced holds reduce(rows, eta) per row,
    applied to each cache-sized block of the prefix-sharing walk
    (subsetsum._iter_orbit_eta)."""
    if N ** k > EXACT_ENUM_LIMIT:
        raise ScaleLimitError(
            f"N^k = {N ** k} exceeds the enumeration guard; use success_mc, "
            "lsb_threshold_check or trivial_success with samples")
    return _iter_orbit_eta(N, k, SHARD, reduce)


def _sharded(N: int, k: int, samples: int, seed, threads: int, work) -> list:
    """The one Monte Carlo pass: the memory guard, before any draw, then
    [work(rng, xs) per shard of SHARD draws, the last partial] in shard
    order on `threads` workers.  Each shard's rng is its own child of seed
    and first draws xs, its (n, k) labels uniform on Z_N^k."""
    rows = min(samples, SHARD)
    if N * rows * 8 > MC_SHARD_BYTES:
        raise ScaleLimitError(
            f"N * min(samples, SHARD) * 8 = {N * rows * 8} bytes (N = {N}) "
            f"exceeds the Monte Carlo memory guard of {MC_SHARD_BYTES} bytes")
    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))
    counts = [min(SHARD, samples - lo) for lo in range(0, samples, SHARD)]

    def shard(ss, n):
        rng = np.random.default_rng(ss)
        return work(rng, rng.integers(0, N, size=(n, k)))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(shard, root.spawn(len(counts)), counts))


def _mean(N: int, k: int, values, samples: int | None = None, seed=None,
          threads: int = 1) -> tuple[float, float]:
    """Mean over x in Z_N^k of the kernel values(eta, N, k), which maps
    (S, N) counts to S per-draw values, and its standard error.  The
    kernel is row-wise, so it runs as the reducer of each cache-sized
    counting block (the orbit walk's when exact, count_eta_batch's
    otherwise), on counts in the work dtype, and no (SHARD, N) table is
    held.

    With samples None the mean is exact (stderr 0): one x per orbit of
    Z_N^k under coordinate permutations is enumerated in SHARD chunks
    (_all_eta), each chunk's values are summed weighted by their orbit
    sizes, and the chunk sums are merged by fsum and divided by N^k.
    Otherwise x is drawn uniformly by the one Monte Carlo pass _sharded
    (memory guard, seeded shards, `threads` workers), and the shard
    results are merged in shard order: the mean from the fsum of the
    shard sums, the variance from each shard's squared deviations about
    its own mean, combined by the pairwise update.
    """
    def reduce(rows, eta):
        return values(eta, N, k)

    if samples is None:
        def chunk_sum(chunk):
            w, v = chunk
            return float(np.sum(w * v))

        # map holds no chunk while the next one is counted
        return math.fsum(map(chunk_sum, _all_eta(N, k, reduce))) / N ** k, 0.0
    if samples < 2:
        raise ValueError("need at least 2 samples")

    def shard(rng, xs):
        v = count_eta_batch(xs, N, reduce)
        total = float(np.sum(v))
        dev = v - total / len(v)
        return total, float(np.sum(dev * dev)), len(v)

    parts = _sharded(N, k, samples, seed, threads, shard)
    mean = math.fsum(total for total, _, _ in parts) / samples
    # Chan et al.'s pairwise merge of (count, mean, squared deviations)
    seen, run_mean, sq_dev = 0, 0.0, 0.0
    for total, sq, n in parts:
        delta = total / n - run_mean
        seen += n
        run_mean += delta * n / seen
        sq_dev += sq + delta * delta * (seen - n) * n / seen
    return mean, math.sqrt(sq_dev / (samples - 1) / samples)


# ---------------------------------------------------------------------------
# N-outcome success probability
# ---------------------------------------------------------------------------

def _success_values(eta: np.ndarray, N: int, k: int) -> np.ndarray:
    """Per-draw values (sum_r sqrt(eta_r))^2 / (2^k N), O(N) for every N."""
    root_sums = np.sqrt(eta, dtype=np.float64).sum(axis=1)
    # a block whose value is exactly 1 can round to 1 + 2^-52
    return np.minimum(root_sums ** 2 / (N * float(2 ** k)), 1.0)


def success_exact(N: int, k: int) -> ThresholdPoint:
    """Exact success probability by orbit-weighted enumeration of Z_N^k."""
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


def _counting_terms(eta: np.ndarray, N: int) -> np.ndarray:
    """Per-draw (eta_0, eta_(N/2), sum_(r != 0, N/2) eta_r eta_(-r)) as an
    (S, 3) int64 table; the counts are widened before the products, which
    overflow the int16 work tables from k = 8 on."""
    eta = eta.astype(np.int64)
    half = N // 2
    keep = np.setdiff1d(np.arange(N, dtype=np.int64), (0, half))
    cross = (eta[:, keep] * eta[:, (-keep) % N]).sum(axis=1)
    return np.column_stack((eta[:, 0], eta[:, half], cross))


def lsb_counting_sums(N: int, k: int) -> tuple[int, int, int]:
    """Exact integer sums behind the parity bound, by orbit-weighted
    enumeration: sum_x eta_0, sum_x eta_(N/2), and
    sum_x sum_(r != 0, N/2) eta_r eta_(-r).
    """
    if N % 2 != 0:
        raise ValueError("N must be even")
    sum0 = sum_half = cross = 0
    for w, terms in _all_eta(N, k, lambda rows, eta: _counting_terms(eta, N)):
        sum0 += int(w @ terms[:, 0])
        sum_half += int(w @ terms[:, 1])
        cross += int(w @ terms[:, 2])
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

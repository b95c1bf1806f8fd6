"""Protocol simulation: outcome distributions, trials, shift covariance."""

import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import dihedral_pgm
from dihedral_pgm import (TRIVIAL, BlockLabel, ScaleLimitError, block_state,
                          count_eta, lsb_threshold_check, outcome_distribution,
                          povm_block, run_trials, shift_covariance_check,
                          simulate, success, success_exact, success_mc,
                          trivial_success)
from dihedral_pgm.simulate import (SETTLE_MARGIN, _checkpoint,
                                   _checkpoint_heads, _distributions,
                                   _miss_cdf, _miss_plan, _outcome_rows,
                                   _outcomes, _shift_bytes, _shift_plan,
                                   _trial_shard, _trivial_bytes,
                                   _trivial_outcomes, _unfold)
from dihedral_pgm.success import (MC_SHARD_BYTES, SHARD, _depth_bytes,
                                  _sharded, _support_sizes, _worker_bytes)
from dihedral_pgm.subsetsum import (CHUNK_BYTES, _count_bytes, _label_dtype,
                                    count_eta_batch, iter_all_eta)


def _distributions_by_full_ifft(eta, N, k, hidden):
    """The outcome tables from a length-N inverse FFT of sqrt(eta) per
    block, and for the trivial subgroup from a support count per row of
    the (rows, N + 1) table: the slow path of _distributions."""
    S = eta.shape[0]
    out = np.zeros((S, N + 1))
    denom = N * float(2 ** k)
    if hidden == TRIVIAL:
        support = np.count_nonzero(eta, axis=1)
        out[:, :N] = (support / denom)[:, None]
        out[:, N] = 1.0 - support / float(2 ** k)
        return out
    d = int(hidden) % N
    amps = np.fft.ifft(np.sqrt(eta, dtype=np.float64), axis=1) * N
    W = amps.real ** 2 + amps.imag ** 2
    cols = (d - np.arange(N)) % N
    out[:, :N] = W[:, cols] / denom
    return out


def _random_draws(N, k, S, seed):
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, N, size=(S, k))
    return count_eta_batch(xs, N), rng.random(S)


def test_outcome_distribution_examples():
    probs = outcome_distribution(BlockLabel((1,), 2), 0)
    assert np.allclose(probs, [1.0, 0.0, 0.0], atol=1e-12)
    probs = outcome_distribution(BlockLabel((0,), 2), 0)
    assert np.allclose(probs, [0.5, 0.5, 0.0], atol=1e-12)


def test_outcome_distribution_trivial_block():
    probs = outcome_distribution(BlockLabel((0,), 2), TRIVIAL)
    assert np.allclose(probs, [0.25, 0.25, 0.5], atol=1e-15)
    label = BlockLabel((1, 2, 0), 4)
    probs = outcome_distribution(label, TRIVIAL)
    support = count_eta(label).support_size
    assert np.allclose(probs[:4], support / (4 * 8), atol=1e-15)
    assert abs(probs[4] - (1 - support / 8)) < 1e-15


def test_outcome_distribution_matches_born_rule():
    # oracle: <psi| E_j |psi> from the explicit block vectors
    rng = np.random.default_rng(67)
    for _ in range(25):
        N = int(rng.integers(2, 9))
        k = int(rng.integers(1, 7))
        label = BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        d = int(rng.integers(N))
        probs = outcome_distribution(label, d)
        psi = block_state(label, d).amplitudes
        blk = povm_block(label)
        for j in range(N):
            born = np.vdot(psi, blk.effect(j) @ psi).real
            assert abs(probs[j] - born) < 1e-12
        assert probs[N] == 0.0


def test_outcome_distribution_normalization():
    rng = np.random.default_rng(71)
    for _ in range(50):
        N = int(rng.integers(2, 17))
        k = int(rng.integers(1, 15))
        label = BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        hidden = TRIVIAL if rng.integers(2) else int(rng.integers(N))
        probs = outcome_distribution(label, hidden)
        assert probs.min() >= -1e-15
        assert abs(probs.sum() - 1) < 1e-12


def test_shift_plan_reads_the_folded_columns():
    # the runs of _shift_plan copy, in the order of j, the columns
    # min(m, N - m) of m = (d - j) mod N of the half spectrum, bitwise, in
    # at most three slices, for every shift of every N up to 70 and for
    # the shifts around 0, N // 2 and N - 1 of larger N, odd and even;
    # so do those of _miss_plan for every j but d, from CDF column 1 on,
    # leaving column 0, where P(d) goes, unwritten
    rng = np.random.default_rng(6)
    for N in list(range(1, 71)) + [255, 256, 1023, 1024]:
        W = rng.random((3, N // 2 + 1))
        shifts = (range(N) if N <= 70 else
                  {0, 1, N // 2 - 1, N // 2, N // 2 + 1, N - 2, N - 1})
        for d in shifts:
            m = (d - np.arange(N)) % N
            plan = _shift_plan(N, d)
            P = np.full((3, N + 1), np.nan)
            _unfold(W, plan, P)
            assert len(plan) <= 3
            assert np.array_equal(P[:, :N], W[:, np.minimum(m, N - m)])
            assert np.isnan(P[:, N]).all()
            plan = _miss_plan(N, d)
            P = np.full((3, N), np.nan)
            _unfold(W, plan, P)
            assert len(plan) <= 3
            assert np.isnan(P[:, 0]).all()
            m = np.delete(m, d)
            assert np.array_equal(P[:, 1:], W[:, np.minimum(m, N - m)])


def _miss_cases():
    """(N, d): every shift of N <= 70, and the shifts around 0, N // 2 and
    N - 1 at N = 1023 and 1024."""
    return st.one_of(
        st.integers(1, 70).flatmap(
            lambda N: st.tuples(st.just(N), st.integers(0, N - 1))),
        st.sampled_from((1023, 1024)).flatmap(lambda N: st.tuples(
            st.just(N), st.sampled_from(sorted(
                {0, 1, N // 2 - 1, N // 2, N // 2 + 1, N - 2, N - 1})))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_miss_cases(), st.integers(1, 14), st.integers(0, 2 ** 32 - 1))
def test_each_outcome_takes_a_u_interval_of_its_probability(case, k, seed):
    # the outcomes are ordered d, then j != d ascending, then the trivial
    # outcome; the u that _outcomes maps to each of them is an interval
    # as long as its probability in _distributions, within 1e-15, and a
    # u inside it, or on its lower end (exact when N is a power of two),
    # maps to it; the trivial outcome, of probability 0, keeps only what
    # the N roundings of the cumulative sum leave, at most N ulp of 1
    N, d = case
    eta, _ = _random_draws(N, k, 4, seed)
    S, denom = eta.shape[0], N * float(2 ** k)
    order = [d] + [j for j in range(N) if j != d]
    roots = np.sqrt(eta, dtype=np.float64)
    P = np.empty((S, N))
    plan = _miss_plan(N, d)
    _miss_cdf(roots, roots.sum(axis=1) ** 2, plan, P)
    cdf = P / denom
    probs = _distributions(eta, N, k, d)
    lengths = np.diff(cdf, axis=1, prepend=0.0)
    assert np.abs(lengths - probs[:, order]).max() <= 1e-15
    assert np.abs(1.0 - cdf[:, -1]).max() <= N * 2.0 ** -52
    probe = (np.arange(N) if N <= 70 else
             np.unique([0, 1, d, min(d + 1, N - 1), N - 1]
                       + list(range(0, N, 61))))
    lower = np.hstack([np.zeros((S, 1)), cdf[:, :-1]])[:, probe]
    upper = cdf[:, probe]
    kept = upper > lower
    points = [(lower + upper) / 2]
    if N & (N - 1) == 0:
        points.append(lower)
    buffer = np.empty((_outcome_rows(N), N))
    want = np.broadcast_to(np.array(order)[probe], kept.shape)[kept]
    rows = np.repeat(np.arange(S), probe.size).reshape(S, -1)[kept]
    for u in points:
        got = _outcomes(eta[rows], N, k, d, plan, u[kept], buffer)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("N, k, hidden", [(8, 4, 3), (5, 5, 0), (6, 2, 5),
                                          (4, 6, 2), (3, 7, 1), (2, 12, 1)])
def test_simulated_outcomes_follow_the_distributions(N, k, hidden):
    # at dense scale, every label of Z_N^k is enumerated, so the law of a
    # trial's outcome is the mean of _distributions over them; the
    # outcomes of run_trials pass a chi-square test against it, bins
    # expecting under 5 trials pooled, and no trial is trivial
    law = sum(_distributions(eta, N, k, hidden).sum(axis=0)
              for _, eta in iter_all_eta(N, k)) / N ** k
    trials = 20000
    _, columns = run_trials(N, k, hidden, trials, seed=N * 100 + k)
    seen = np.bincount(columns["outcomes"], minlength=N + 1)
    assert seen[N] == 0
    expect = trials * law[:N]
    small = expect < 5
    observed = np.append(seen[:N][~small], seen[:N][small].sum())
    expected = np.append(expect[~small], expect[small].sum())
    if not small.any():
        observed, expected = observed[:-1], expected[:-1]
    expected *= observed.sum() / expected.sum()
    assert stats.chisquare(observed, expected).pvalue > 1e-3


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 37, 256])
def test_half_spectrum_matches_the_full_ifft(N):
    # W[m] = W[N - m] for the real input sqrt(eta), odd N included; the
    # two FFTs round differently, by far less than 1e-12
    for k in (1, 3, 9):
        eta, _ = _random_draws(N, k, 200, N + k)
        for hidden in sorted({0, 1 % N, N // 2, N - 1}):
            fast = _distributions(eta, N, k, hidden)
            slow = _distributions_by_full_ifft(eta, N, k, hidden)
            assert np.abs(fast - slow).max() <= 1e-12
        assert np.array_equal(_distributions(eta, N, k, TRIVIAL),
                              _distributions_by_full_ifft(eta, N, k, TRIVIAL))


@pytest.mark.parametrize("N, k", [(1, 4), (2, 5), (5, 2), (37, 6),
                                  (256, 6), (1024, 10)])
def test_trivial_outcomes_from_support_sizes_match_the_tables(N, k):
    # one cumulative row per distinct support size, searched, against the
    # inverse CDF over each row's own (N + 1)-column table
    eta, u = _random_draws(N, k, 3000, 7 * N + k)
    cdf = np.cumsum(_distributions_by_full_ifft(eta, N, k, TRIVIAL), axis=1)
    # ties: the first rows draw a u equal to an entry of their own row
    entries = np.random.default_rng(N).integers(0, N + 1, size=100)
    u[:100] = cdf[np.arange(100), entries]
    tables = np.minimum((cdf <= u[:, None]).sum(axis=1), N)
    fast = _trivial_outcomes(_support_sizes(eta), N, k, u)
    assert fast.dtype == tables.dtype
    assert np.array_equal(fast, tables)


def _heads(xs, N):
    """(sum_r sqrt(eta_r))^2 of each row of xs, computed as the shift
    reducers compute it."""
    return count_eta_batch(
        xs, N,
        lambda rows, eta: np.sqrt(eta, dtype=np.float64).sum(axis=1) ** 2)


def _settle_heads(xs, N):
    """head_j of each row of xs as the checkpoint computes it: from its
    counts mod 2^8 (uint8 tables), with float32 square roots."""
    return count_eta_batch(
        xs, N, lambda rows, eta: _checkpoint_heads(eta), table=np.uint8)


def _keep(N):
    """1 - delta of the checkpoint's rule at N."""
    return 1 - (N + 1) * SETTLE_MARGIN


def _largest_settled(head, N, scale):
    """The largest u that the checkpoint's rule u scale < head (1 - delta)
    settles at N, as computed, or None where no u >= 0 settles: a head of
    0, whose every count wrapped to 0 mod 2^8."""
    bound = head * _keep(N)
    if bound <= 0:
        return None
    u = np.nextafter(bound / scale, np.inf)
    while not u * scale < bound:
        u = np.nextafter(u, 0)
    return u


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 70).flatmap(lambda N: st.tuples(
           st.just(N),
           st.lists(st.integers(0, N - 1), min_size=2, max_size=20))),
       st.integers(0, 19), st.one_of(st.just(0), st.integers(8, 19)))
def test_a_checkpoint_head_bounds_the_full_head(case, zeros, lead):
    # any row that the rule u N 2^j < head_j (1 - delta) settles at a
    # depth j < k, head_j from its counts mod 2^8 in float32 square
    # roots, must hit d on its full count: u N 2^k below the float64 head
    # of _outcomes.  Checked for the largest u settled, at every depth
    # j < k, with all-zero tails, where head_k = 2^(k - j) head_j exactly
    # while no count wraps, and with all-zero prefixes of 8 coordinates
    # or more, whose counts wrap on uint8 tables
    N, x = case
    k = len(x)
    x[k - min(zeros, k - 1):] = [0] * min(zeros, k - 1)
    x[:min(lead, k - 1)] = [0] * min(lead, k - 1)
    xs = np.array([x])
    full = _heads(xs, N)[0]
    for j in range(k):
        u = _largest_settled(_settle_heads(xs[:, :j], N)[0], N,
                             N * 2.0 ** j)
        assert u is None or u * (N * 2.0 ** k) < full, (j, u, full)


class _Uniforms:
    """A generator stand-in for _trial_shard whose random(n) gives the
    uniforms it was made with."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


@pytest.mark.parametrize("N, k", [(64, 12), (64, 14), (37, 12), (5, 9),
                                  (1024, 16)])
def test_checkpoint_outcomes_match_the_full_count(N, k):
    # a shift shard settles at the checkpoint depth j the rows whose u
    # lies below head_j (1 - delta) / (N 2^j), head_j from uint8 counts
    # and float32 roots, and counts the others in full: its outcomes must
    # be those of the full count of every row, with u drawn freely,
    # placed at head_j (1 -+ delta) / (N 2^j), just below head_j / (N 2^j)
    # and near 1; with all-zero tails, where the bound is tight, and with
    # all-zero prefixes of 8 coordinates, whose counts wrap mod 2^8 from
    # j = 8 on; the open rows must include rows that hit d and rows that
    # miss it
    j, d = _checkpoint(N, k), 5 % N
    assert j
    rng = np.random.default_rng(N * 100 + k)
    S = 600
    xs = rng.integers(0, N, size=(S, k)).astype(_label_dtype(N))
    xs[:S // 3, j:] = 0
    xs[S // 3:S // 2, :8] = 0
    scale = N * float(2 ** j)
    head = _settle_heads(xs[:, :j], N)
    u = rng.random(S)
    u[0::5] = head[0::5] * _keep(N) / scale
    u[1::5] = head[1::5] * (2 - _keep(N)) / scale
    u[2::5] = 1 - rng.random(len(u[2::5])) * 2.0 ** -20
    u[3::5] = np.nextafter(head[3::5] / scale, 0)
    u = np.minimum(u, 1 - 2.0 ** -53)
    plan, cdf = _miss_plan(N, d), np.empty((_outcome_rows(N), N))
    full = count_eta_batch(
        xs, N, lambda rows, eta: _outcomes(eta, N, k, d, plan, u[rows], cdf))
    got = _trial_shard(N, k, d, _Uniforms(u), xs)
    assert got.dtype == _label_dtype(N)
    assert np.array_equal(got, full)
    settled = u * scale < head * _keep(N)
    assert settled.any()
    assert (full[~settled] == d).any() and (full[~settled] != d).any()


def _head_bound(N):
    """The relative rounding of a float32 head of N roots summed in any
    order, (1 + f) / (1 - N e)^2 - 1 for e = 2^-24 and f = 2^-53, as
    _settled_outcomes bounds it, exactly."""
    e, f = Fraction(1, 2 ** 24), Fraction(1, 2 ** 53)
    return (1 + f) / (1 - N * e) ** 2 - 1


def test_the_guard_keeps_checkpoint_heads_within_the_margin():
    # the guard refuses a simulate of N = 2^17 at every k with a
    # checkpoint, even of one trial, and 110,817 is the largest N it lets
    # through with one
    N = 2 ** 17
    ks = [k for k in range(1, 63) if _checkpoint(N, k)]
    assert ks
    for k in ks:
        assert _worker_bytes(N, k, 1, _shift_bytes) > MC_SHARD_BYTES
    N = 110_817
    for n in (N, N + 1):
        admitted = [k for k in range(1, 63) if _checkpoint(n, k) and
                    _worker_bytes(n, k, 1, _shift_bytes) <= MC_SHARD_BYTES]
        assert bool(admitted) == (n == N)


def test_the_settle_margin_holds_for_any_summation_order():
    # _settled_outcomes proves its rule for any order of summation: a
    # settled row has u N 2^k below H_k (1 - delta) (1 + f)^2 / (1 - N e)^2
    # and the full count's head is at least H_k (1 - 2 gamma'_N - f),
    # checked here as exact fractions for N up to 2^23 - 2; from
    # N = 2^23 - 1 on, 1 - delta <= 0 and nothing settles
    e, f = Fraction(1, 2 ** 24), Fraction(1, 2 ** 53)
    for N in (1, 2, 3, 70, 1024, 110_817, 2 ** 17, 2 ** 20, 2 ** 23 - 2):
        settled = (Fraction(_keep(N)) * (1 + f) ** 2 / (1 - N * e) ** 2)
        assert settled < 1 - 2 * (N * f / (1 - N * f)) - f
    assert _keep(2 ** 23 - 1) <= 0
    # the heads of rows of 255s, of 1s, of random counts and of one
    # nonzero count, summed by numpy, one by one in order and one by one
    # reversed, lie within that bound of their value, at the largest N the
    # guard lets through with a checkpoint, at 2^17 and at 2^20; one by
    # one, a row of 255s at 110,817 errs by about 2^-11, so no margin
    # below that could take in every order there
    rng = np.random.default_rng(1)
    for N in (110_817, 2 ** 17, 2 ** 20):
        eta = np.zeros((4, N), dtype=np.uint8)
        eta[0] = 255
        eta[1] = 1
        eta[2] = rng.integers(0, 256, size=N)
        eta[3, 7] = 200
        exact = [math.fsum(np.sqrt(row, dtype=np.float64)) ** 2
                 for row in eta]
        roots = np.sqrt(eta, dtype=np.float32)
        orders = (_checkpoint_heads(eta),
                  np.cumsum(roots, axis=1)[:, -1].astype(np.float64) ** 2,
                  np.cumsum(roots[:, ::-1], axis=1)[:, -1]
                  .astype(np.float64) ** 2)
        bound = float(_head_bound(N))
        for heads in orders:
            for head, value in zip(heads, exact):
                assert abs(head - value) <= bound * value
        if N == 110_817:
            assert abs(orders[1][0] - exact[0]) > 2.0 ** -16 * exact[0]


def test_shards_import_no_masked_arrays():
    # np.unique imports numpy.ma on its first call in a process, 8-10 ms
    # that each cold worker of the pool would pay in its first trivial
    # shard: neither shard path may import it
    src = os.path.dirname(os.path.dirname(dihedral_pgm.__file__))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from dihedral_pgm.simulate import _trial_shard\n"
        "from dihedral_pgm.success import _draw_labels\n"
        "before = 'numpy.ma' in sys.modules\n"
        "for k, hidden in ((10, 'trivial'), (20, 3)):\n"
        "    rng = np.random.default_rng(1)\n"
        "    _trial_shard(1024, k, hidden, rng,\n"
        "                 _draw_labels(rng, 1024, 256, k))\n"
        "print(before, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before


def test_success_marginal_matches_exact():
    for N, k in [(2, 3), (4, 2), (8, 1)]:
        parts = []
        for _, eta in iter_all_eta(N, k):
            parts.append(float(_distributions(eta, N, k, 0)[:, 0].sum()))
        mean = math.fsum(parts) / N ** k
        assert abs(mean - success_exact(N, k).p) < 1e-12


def test_run_trials_rate():
    rate, columns = run_trials(2, 1, 0, 10000, seed=5)
    stderr = math.sqrt(0.75 * 0.25 / 10000)
    assert abs(rate - 0.75) <= 4 * stderr
    assert columns["labels"].shape == (10000, 1)
    assert columns["outcomes"].shape == (10000,)
    assert rate == np.count_nonzero(columns["outcomes"] == 0) / 10000


def test_run_trials_trivial_subgroup():
    exact = trivial_success(8, 7)
    rate, columns = run_trials(8, 7, TRIVIAL, 10000, seed=5)
    stderr = math.sqrt(exact * (1 - exact) / 10000)
    assert abs(rate - exact) <= 4 * stderr
    # outcome N = 8 is the trivial outcome, and it is the one scored
    assert rate == np.count_nonzero(columns["outcomes"] == 8) / 10000
    assert np.any(columns["outcomes"] == 8)


def test_run_trials_matches_mc_estimator():
    point = success_mc(64, 10, 10000, seed=41)
    rate, _ = run_trials(64, 10, 17, 10000, seed=42)
    stderr = math.sqrt(point.p * (1 - point.p) / 10000) + point.stderr
    assert abs(rate - point.p) <= 4 * stderr


def test_run_trials_shift_independence():
    rate_a, _ = run_trials(64, 10, 0, 1000, seed=43)
    rate_b, _ = run_trials(64, 10, 17, 1000, seed=44)
    pooled = math.sqrt(2 * 0.25 / 1000)
    assert abs(rate_a - rate_b) <= 4 * pooled


def test_run_trials_deterministic_and_thread_invariant():
    a = run_trials(8, 4, 3, 5000, seed=9)
    b = run_trials(8, 4, 3, 5000, seed=9, threads=4)
    assert a[0] == b[0]
    for name in ("labels", "outcomes"):
        assert np.array_equal(a[1][name], b[1][name])


def test_run_trials_peak_memory_is_chunk_sized():
    # A shard holds its (SHARD, k) draws and uniforms, and one counting
    # chunk of the byte budget CHUNK_BYTES, handed to the outcome reducer
    # in blocks of CHUNK_BYTES // (8 N) rows: no (SHARD, N) count table,
    # which would be 8 MB at N = 256 and 32 MB at N = 1024.  The bound
    # does not grow with N, so a worker pool's peak hardly depends on N
    # or on how the workers interleave.  The runs peak at 3.4-4.2
    # CHUNK_BYTES beyond the draws; one call before the measured one
    # keeps one-time lazy imports out of the peak.
    k = 12
    draws = SHARD * (k + 1) * 8
    for N in (256, 1024):
        for hidden in (3, TRIVIAL):
            run_trials(N, k, hidden, 64, seed=4)
            tracemalloc.start()
            run_trials(N, k, hidden, SHARD, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 5 * CHUNK_BYTES + draws


def test_monte_carlo_guard_allocates_nothing_sized_by_n():
    # One (SHARD, 2^20) count table would be 32 GiB, and even one
    # counting row with its histogram 14 MB: the guard raises before any
    # draw or table, in the estimators and the simulator alike.
    N = 2 ** 20
    for call in (lambda: success_mc(N, 12, 10000, seed=1),
                 lambda: run_trials(N, 12, 5, 10000, seed=1)):
        tracemalloc.start()
        with pytest.raises(ScaleLimitError, match="memory guard"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2 ** 20


def _never(rng, xs):
    raise AssertionError("a shard ran past the memory guard")


def test_monte_carlo_guard_bounds_the_largest_shard():
    # the limit is _worker_bytes(N, k, samples, held) <= MC_SHARD_BYTES,
    # checked before any draw, held the price of the pass's work: at SHARD
    # draws, held at the width of N, the estimators (one exact count)
    # reach N = 2^16 at every k <= 62, 2^17 up to k = 30 and 2^18 up to
    # k = 5, and on uint16 work tables, whose one-row chunks are half the
    # bytes of int32 ones, N = 160,000 at k = 20; the simulator, whose
    # outcome tables are held too, 2^15 at every k <= 62 and 2^16 up to
    # k = 30, for a shift and for the trivial subgroup
    assert MC_SHARD_BYTES == 2 ** 22
    for N, k, held in ((2 ** 16, 62, _count_bytes),
                       (2 ** 17, 30, _count_bytes),
                       (2 ** 18, 5, _count_bytes),
                       (160_000, 20, _count_bytes),
                       (2 ** 15, 62, _shift_bytes),
                       (2 ** 15, 62, _trivial_bytes),
                       (2 ** 16, 30, _shift_bytes),
                       (2 ** 16, 30, _trivial_bytes)):
        assert _worker_bytes(N, k, SHARD, held) <= MC_SHARD_BYTES
    assert len(list(_sharded(4096, 1, 10000, 1, 1, lambda rng, xs: None))) == 3
    assert len(list(_sharded(2 ** 17, 1, 16, 1, 1, lambda rng, xs: None))) == 1
    for N, k, samples, held in ((2 ** 17, 31, 10000, _count_bytes),
                                (2 ** 18, 6, SHARD, _count_bytes),
                                (2 ** 16, 31, SHARD, _shift_bytes),
                                (2 ** 16, 31, SHARD, _trivial_bytes),
                                (2 ** 18, 14, SHARD, _count_bytes),
                                (2 ** 20, 1, 16, _count_bytes)):
        assert _worker_bytes(N, k, samples, held) > MC_SHARD_BYTES
        with pytest.raises(ScaleLimitError, match="memory guard"):
            _sharded(N, k, samples, 1, 1, _never, held)
    # past int64 counting the guard raises before any draw, too
    with pytest.raises(ScaleLimitError, match="int64 counting guard: k = 63"):
        _sharded(64, 63, 100, 1, 1, _never)


def test_small_n_reaches_every_k_under_the_guard():
    # at N <= 16 a counting chunk is the whole shard, and its reduced and
    # negated coordinates are held at the width of N: one byte a
    # coordinate, not eight, so the estimators and the simulator reach
    # k = 62 there (at int64 they stopped at k = 35 and 31 at N = 8,
    # where `sweep --N 8 --k 40` exited 3)
    for N in range(1, 17):
        for held in (_count_bytes, _shift_bytes, _trivial_bytes):
            assert _worker_bytes(N, 62, SHARD, held) <= MC_SHARD_BYTES
    shards = _sharded(8, 40, 10000, 1, 1, lambda rng, xs: len(xs))
    assert list(shards) == [SHARD, SHARD, 10000 - 2 * SHARD]


# 33 N from 1 to 2^20, odd ones among them, at and next to the guard's
# edges: the simulator's reach at every k (49,146) and with a checkpoint
# (110,817), the estimators' at every k (73,720), on uint16 tables
# (161,108 and 174,755), at k <= 5 (2^18) and past it (2^18 + 2^16);
# and (18,720, 31), whose checkpoint count is the larger stage
GUARD_NS = [1, 2, 3, 5, 7, 8, 12, 16, 17, 27, 64, 100, 255, 256, 1000,
            1023, 1024, 4096, 18_720, 2 ** 15, 40_000, 49_146, 65_535,
            2 ** 16, 73_720, 110_817, 110_818, 2 ** 17, 161_108, 174_755,
            2 ** 18, 2 ** 18 + 2 ** 16, 2 ** 20]
GUARD_SAMPLES = [1, 64, SHARD, 10000]
GUARD_DIGEST = (
    "15a434255cd0bfa5574faf24842c331d11811551e6c01c83ca52fe3629276147")


def _trial_price(hidden):
    """The price of its shards that run_trials hands the Monte Carlo
    pass for hidden, read from a stand-in pass that runs nothing."""
    seen = []

    def pass_(N, k, samples, seed, threads, work, held=_count_bytes):
        seen.append(held)
        yield from ()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_sharded", pass_)
        run_trials(8, 4, hidden, 1, seed=1, sink=lambda outcomes: None)
    return seen[0]


def test_every_guard_estimate_is_pinned():
    # the memory guard's estimate of every Monte Carlo path over a grid of
    # 8,184 sizes, k = 1..62, as one SHA-256 digest: the estimators'
    # default price and the prices run_trials hands the pass for a shift
    # and for the trivial subgroup.  A change to any price, and so to any
    # verdict, shows here as a digest to re-record and to log with the
    # sizes that cross the guard
    assert len(GUARD_NS) == 33
    paths = (_count_bytes, _trial_price(3), _trial_price(TRIVIAL))
    lines, admitted = [], [0, 0, 0]
    for N in GUARD_NS:
        for k in range(1, 63):
            for samples in GUARD_SAMPLES:
                prices = [_worker_bytes(N, k, samples, held)
                          for held in paths]
                lines.append(f"{N} {k} {samples} "
                             + " ".join(map(str, prices)) + "\n")
                for i, price in enumerate(prices):
                    admitted[i] += price <= MC_SHARD_BYTES
    assert len(lines) == 8184
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert (digest, admitted) == (GUARD_DIGEST, [6934, 6138, 6137])


# (N, k) on int16, int32 and uint16 work tables, from histogram blocks
# of 128 rows at N = 256 down to one row at N = 2^16, on int8, int16 and
# int32 labels, and at or next to the guard's edges at SHARD draws: the
# simulator's at N = 2^16, k = 29 (its edge is k = 30), and the
# estimators' at N = 2^16, k = 62, on int64 work tables; and two uint16
# sizes again, (4096, 20) with blocks of 8 rows and (2^16, 16) with
# blocks of one, where each shard's first draw is x = 0, whose count 2^k
# at r = 0 is 0 mod 2^16, so its block fails the row-sum certificate and
# is counted again at the exact type; (1024, 6), where nearly every trial
# misses the hidden shift and its square roots are gathered for the FFT,
# and (1024, 20), where nearly every trial hits it and none is; (8, 40),
# where a chunk is the whole shard, with its coordinates held at the
# width of N; and (18,720, 31), whose checkpoint count on 14-row uint8
# chunks holds more than its full count on one-row int64 chunks.  A
# shift shard has a checkpoint at (4096, 20), (2^16, 29), (2^16, 62),
# (1024, 20), (8, 40) and (18,720, 31), and at (4096, 20), (2^14, 14),
# (2^16, 29) and (18,720, 31) the bool-seeded trivial count holds more
# than the exact one
WORKER_SIZES = [pytest.param(N, k, False, id=f"{N}-{k}") for N, k in (
    (64, 6), (256, 8), (1024, 12), (4096, 20), (2 ** 14, 14), (2 ** 16, 16),
    (2 ** 16, 29), (2 ** 16, 62), (1024, 6), (1024, 20), (8, 40),
    (18_720, 31))] + [
    pytest.param(N, k, True, id=f"{N}-{k}-zero-row")
    for N, k in ((4096, 20), (2 ** 16, 16))]


@pytest.mark.parametrize("N,k,zero_row", WORKER_SIZES)
def test_one_worker_peaks_within_the_guard_estimate(N, k, zero_row,
                                                    monkeypatch):
    # the guard's estimate, as each pass checks it, is an upper bound on
    # what one worker holds, for each value kernel and both outcome
    # reducers, each at the price its pass is handed: the estimators' one
    # exact count, and the price run_trials hands for a shift, whose
    # shard has a checkpoint count on uint8 tables, and for the trivial
    # subgroup, whose shard counts on bool-seeded tables; one call before
    # the measured one keeps one-time lazy imports out of the peak
    if zero_row:
        draw = success._draw_labels

        def draw_with_zero_row(rng, N, n, k):
            xs = draw(rng, N, n, k)
            xs[0] = 0
            return xs

        monkeypatch.setattr(success, "_draw_labels", draw_with_zero_row)
    samples = 64
    for call, held in (
            (lambda: success_mc(N, k, samples, seed=2), _count_bytes),
            (lambda: lsb_threshold_check(N, k, samples, seed=2), _count_bytes),
            (lambda: run_trials(N, k, 3, samples, seed=2), _trial_price(3)),
            (lambda: run_trials(N, k, TRIVIAL, samples, seed=2),
             _trial_price(TRIVIAL))):
        call()
        tracemalloc.start()
        call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= _worker_bytes(N, k, samples, held)


# one full shard of every Monte Carlo path, each at the price its pass is
# handed: success_mc and lsb (_count_bytes), a sweep's depths read from
# one count (_depth_bytes, k a range), and run_trials for a shift, 3
# (_shift_bytes), and for the trivial subgroup (_trivial_bytes).  Sizes:
# the largest tables at N = 2^16, uint8 checkpoint chunks larger than the
# full count's at (18,720, 31), chunks that are the whole shard at
# (8, 40), and uint16 tables in a sweep's deeper depths
SHARD_PATHS = [
    (TRIVIAL, 1024, 10), (TRIVIAL, 64, 16), (TRIVIAL, 8, 40),
    (3, 1024, 20), (3, 64, 14), (3, 2 ** 16, 16), (3, 18_720, 31),
    (3, 8, 40), ("success", 1024, 12), ("success", 8, 40),
    ("lsb", 1024, 20), ("lsb", 8, 40), ("sweep", 1024, range(12, 21)),
    ("sweep", 64, range(13, 21)), ("sweep", 8, range(30, 41)),
    ("sweep", 2 ** 16, range(14, 17))]


@pytest.mark.parametrize("path, N, k", SHARD_PATHS, ids=[
    f"{N}-{k}-{path}" if isinstance(k, int)
    else f"{N}-{k[0]}..{k[-1]}-{path}" for path, N, k in SHARD_PATHS])
def test_one_worker_peaks_within_the_guard_estimate_at_shard_draws(
        path, N, k):
    # one shard of SHARD draws, run inline (one worker), holds at most
    # the guard's estimate of it: a trivial shard counts on bool chunks
    # of twice the rows of int16 ones, a shift shard with a checkpoint
    # counts on uint8 chunks as large and holds its flags, then its open
    # rows' index, uniforms and labels, and a sweep holds one float64 a
    # draw for each depth past the first.  Trials are streamed to a sink;
    # one small call before the measured one keeps one-time lazy imports
    # out of the peak, and the peak holds at least the shard's draws, so
    # the shard ran in this process
    ks = k if isinstance(k, range) else range(k, k + 1)
    K = ks[-1]
    run, held = {
        "success": (lambda n: success_mc(N, K, n, seed=2), _count_bytes),
        "lsb": (lambda n: lsb_threshold_check(N, K, n, seed=2), _count_bytes),
        "sweep": (lambda n: success.threshold_sweep(N, ks, n, seed=2),
                  partial(_depth_bytes, len(ks)))}.get(path) or (
        lambda n: run_trials(N, K, path, n, seed=2,
                             sink=lambda outcomes: None), _trial_price(path))
    run(2)
    tracemalloc.start()
    run(SHARD)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    draws = SHARD * K * np.dtype(_label_dtype(N)).itemsize
    assert draws < peak <= _worker_bytes(N, K, SHARD, held)


def test_mc_peak_memory_does_not_grow_with_samples():
    # the pass keeps at most 2 threads shards in flight and spawns their
    # seeds as it submits them, so 40x the draws is no more memory
    def peak(samples):
        tracemalloc.start()
        success_mc(16, 4, samples, seed=3)
        out = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return out

    peak(SHARD)
    assert peak(4 * 10 ** 6) <= 1.2 * peak(10 ** 5)


class _CountedSeed(np.random.SeedSequence):
    """A root seed that counts the shard seeds spawned from it, in the
    process that holds it: _sharded spawns one as it submits a shard."""

    spawned = 0

    def spawn(self, n_children):
        self.spawned += n_children
        return super().spawn(n_children)


def _shard_size(rng, xs):
    return len(xs)


def _worker_pid(rng, xs):
    # long enough that every worker of the pool takes a shard
    time.sleep(0.02)
    return os.getpid()


def _kill_worker(rng, xs):
    os._exit(1)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_at_most_two_shards_a_thread_are_in_flight(threads):
    # a shard is in flight from its submission, when the pass spawns its
    # seed, until the pass yields its result; both happen in the
    # caller's process, so both are counted there
    seed, yielded, most, sizes = _CountedSeed(5), 0, 0, []
    for n in _sharded(16, 3, 40 * SHARD + 7, seed, threads, _shard_size):
        most = max(most, seed.spawned - yielded)
        yielded += 1
        sizes.append(n)
    assert sizes == [SHARD] * 40 + [7]
    assert seed.spawned == 41
    assert most <= 2 * threads


class _InlinePool:
    """A stand-in for the executor of success._pool: it runs each shard
    in the caller as it is submitted, so no process is started."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("threads, samples, workers", [
    (8, 3 * SHARD - 1, 3), (8, 8 * SHARD + 1, 8), (2, 3 * SHARD, 2),
    (8, SHARD, 2), (1, 3 * SHARD, None)])
def test_the_pool_has_no_more_workers_than_shards(threads, samples, workers,
                                                  monkeypatch):
    # a worker past the number of shards would sit idle: the pass asks
    # for min(threads, max(2, shards)) workers, runs one thread inline,
    # and the worker count moves no shard's draws
    asked = []
    monkeypatch.setattr(success, "_pool",
                        lambda n: asked.append(n) or _InlinePool())
    draws = list(_sharded(16, 3, samples, 1, threads, lambda rng, xs: xs))
    assert asked == ([] if workers is None else [workers])
    inline = list(_sharded(16, 3, samples, 1, 1, lambda rng, xs: xs))
    assert len(draws) == len(inline)
    assert all(np.array_equal(a, b) for a, b in zip(draws, inline))


@pytest.mark.parametrize("threads", [1, 2])
def test_run_trials_takes_trivial_by_value(threads):
    # a str equal to TRIVIAL but not the same object, as it arrives from
    # a command line or from another process, names the trivial subgroup
    hidden = "".join(["tri", "vial"])
    assert hidden == TRIVIAL and hidden is not TRIVIAL
    N, k, trials = 64, 6, 2 * SHARD + 5
    rate, columns = run_trials(N, k, hidden, trials, seed=13, threads=threads)
    want, expect = run_trials(N, k, TRIVIAL, trials, seed=13, threads=1)
    assert rate == want
    for name in ("labels", "outcomes"):
        assert np.array_equal(columns[name], expect[name])


def test_passes_reuse_the_worker_processes():
    # the pool starts once per process: a second pass on as many workers
    # runs on the same forked processes, none of them the caller
    first = set(_sharded(16, 3, 8 * SHARD, 1, 2, _worker_pid))
    second = set(_sharded(16, 3, 8 * SHARD, 2, 2, _worker_pid))
    assert os.getpid() not in first | second
    assert len(first | second) <= 2


@pytest.mark.parametrize("hidden", [3, TRIVIAL])
def test_a_failing_sink_leaves_the_pool_working(hidden):
    # a sink that raises mid-stream ends its pass; the next pass on the
    # same pool gives the bytes of one worker
    def sink(outcomes):
        raise RuntimeError("sink failed")

    N, k, trials = 64, 6, 3 * SHARD + 5
    with pytest.raises(RuntimeError, match="sink failed"):
        run_trials(N, k, hidden, 8 * SHARD, seed=12, threads=2, sink=sink)
    rate, columns = run_trials(N, k, hidden, trials, seed=12, threads=2)
    one_rate, one = run_trials(N, k, hidden, trials, seed=12, threads=1)
    assert rate == one_rate
    for name in ("labels", "outcomes"):
        assert np.array_equal(columns[name], one[name])


def test_a_dead_worker_costs_one_pass():
    # a worker that dies breaks the pool under the pass that ran it; the
    # next pass starts a new pool
    with pytest.raises(BrokenProcessPool):
        list(_sharded(16, 3, 4 * SHARD, 1, 2, _kill_worker))
    assert list(_sharded(16, 3, 4 * SHARD + 1, 1, 2, _shard_size)) == (
        [SHARD] * 4 + [1])


@pytest.mark.parametrize("threads", [1, 2])
def test_run_trials_labels_are_the_estimators_draws(threads):
    # run_trials draws its labels from the estimators' shard plan, so the
    # simulator and _means see the same x for a given seed
    N, k, trials = 64, 6, SHARD + 5
    labels = np.concatenate(
        list(_sharded(N, k, trials, 11, 1, lambda rng, xs: xs)))
    _, columns = run_trials(N, k, 3, trials, seed=11, threads=threads)
    assert np.array_equal(columns["labels"], labels)


@pytest.mark.parametrize("hidden", [3, TRIVIAL])
def test_run_trials_sink_sees_the_columns_in_shard_order(hidden):
    # a sink gets each shard's outcomes, at the width of N, as the pass
    # yields them, and run_trials then keeps no columns
    N, k, trials = 64, 6, 3 * SHARD + 5
    rate, columns = run_trials(N, k, hidden, trials, seed=12, threads=2)
    seen = []
    streamed, none = run_trials(N, k, hidden, trials, seed=12, threads=2,
                                sink=seen.append)
    assert none is None and streamed == rate
    assert [len(out) for out in seen] == [SHARD] * 3 + [5]
    assert {out.dtype for out in seen} == {np.dtype(np.int8)}
    assert columns["outcomes"].dtype == np.int64
    assert np.array_equal(np.concatenate(seen), columns["outcomes"])


def test_run_trials_validates_count():
    with pytest.raises(ValueError):
        run_trials(4, 2, 0, 0, seed=1)


def test_shift_covariance_specific_pair():
    label = BlockLabel((1, 2), 4)
    base = outcome_distribution(label, 1)
    moved = outcome_distribution(label, 3)
    assert np.array_equal(np.roll(base[:4], 2), moved[:4])


def test_shift_covariance_zero_delta():
    label = BlockLabel((3, 1), 5)
    a = outcome_distribution(label, 2)
    b = outcome_distribution(label, 2)
    assert np.array_equal(a, b)


def test_shift_covariance_randomized():
    assert shift_covariance_check(8, 5, 100, seed=9)
    assert shift_covariance_check(6, 3, 50, seed=10)


@pytest.mark.parametrize("column", ["shift", "trivial"])
def test_shift_covariance_check_fails_when_a_column_moves(column,
                                                          monkeypatch):
    # the shift outcomes rolled once more by d break P_d(j) =
    # P_(d+delta)(j+delta); the trivial outcome moved by d leaves the
    # shift outcomes covariant and breaks only the trivial column
    def moved(eta, N, k, hidden):
        out = _distributions(eta, N, k, hidden)
        if column == "shift":
            out[:, :N] = np.roll(out[:, :N], hidden, axis=1)
        else:
            out[:, N] += hidden
        return out

    monkeypatch.setattr(simulate, "_distributions", moved)
    assert not shift_covariance_check(8, 5, 100, seed=9)
    assert not shift_covariance_check(6, 3, 50, seed=10)

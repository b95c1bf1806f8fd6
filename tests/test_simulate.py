"""Protocol simulation: outcome distributions, trials, shift covariance."""

import math
import os
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from dihedral_pgm import (TRIVIAL, BlockLabel, ScaleLimitError, block_state,
                          count_eta, lsb_threshold_check, outcome_distribution,
                          povm_block, run_trials, shift_covariance_check,
                          success_exact, success_mc, trivial_success)
from dihedral_pgm.simulate import (_distributions, _outcome_bytes, _outcomes,
                                   _trivial_outcomes)
from dihedral_pgm.success import (MC_SHARD_BYTES, SHARD, _sharded,
                                  _support_sizes, _worker_bytes)
from dihedral_pgm.subsetsum import CHUNK_BYTES, count_eta_batch, iter_all_eta


def _distributions_by_full_ifft(eta, N, k, hidden):
    """The outcome tables from a length-N inverse FFT of sqrt(eta) per
    block, and for the trivial subgroup from a support count per row of
    the (rows, N + 1) table: the slow path of _distributions."""
    S = eta.shape[0]
    out = np.zeros((S, N + 1))
    denom = N * float(2 ** k)
    if hidden is TRIVIAL:
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
    probs = outcome_distribution(BlockLabel((1,), 2), 0).probs
    assert np.allclose(probs, [1.0, 0.0, 0.0], atol=1e-12)
    probs = outcome_distribution(BlockLabel((0,), 2), 0).probs
    assert np.allclose(probs, [0.5, 0.5, 0.0], atol=1e-12)


def test_outcome_distribution_trivial_block():
    probs = outcome_distribution(BlockLabel((0,), 2), TRIVIAL).probs
    assert np.allclose(probs, [0.25, 0.25, 0.5], atol=1e-15)
    label = BlockLabel((1, 2, 0), 4)
    dist = outcome_distribution(label, TRIVIAL)
    support = count_eta(label).support_size
    assert np.allclose(dist.probs[:4], support / (4 * 8), atol=1e-15)
    assert abs(dist.probs[4] - (1 - support / 8)) < 1e-15


def test_outcome_distribution_matches_born_rule():
    # oracle: <psi| E_j |psi> from the explicit block vectors
    rng = np.random.default_rng(67)
    for _ in range(25):
        N = int(rng.integers(2, 9))
        k = int(rng.integers(1, 7))
        label = BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        d = int(rng.integers(N))
        probs = outcome_distribution(label, d).probs
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
        probs = outcome_distribution(label, hidden).probs
        assert probs.min() >= -1e-15
        assert abs(probs.sum() - 1) < 1e-12


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
    assert np.array_equal(_outcomes(eta, N, k, TRIVIAL, u), tables)


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
    # checked before any draw: at SHARD draws, held at the width of N,
    # the estimators reach N = 2^16 at every k <= 62, 2^17 up to k = 30
    # and 2^18 up to k = 5, and the simulator, whose outcome tables are
    # held too, 2^15 at every k <= 62 and 2^16 up to k = 29
    assert MC_SHARD_BYTES == 2 ** 22
    for N, k, held in ((2 ** 16, 62, 0), (2 ** 17, 30, 0), (2 ** 18, 5, 0),
                       (2 ** 15, 62, _outcome_bytes(2 ** 15)),
                       (2 ** 16, 29, _outcome_bytes(2 ** 16))):
        assert _worker_bytes(N, k, SHARD, held) <= MC_SHARD_BYTES
    assert len(list(_sharded(4096, 1, 10000, 1, 1, lambda rng, xs: None))) == 3
    assert len(list(_sharded(2 ** 17, 1, 16, 1, 1, lambda rng, xs: None))) == 1
    for N, k, samples, held in ((2 ** 17, 31, 10000, None),
                                (2 ** 18, 6, SHARD, None),
                                (2 ** 16, 30, SHARD, _outcome_bytes),
                                (2 ** 18, 14, SHARD, None),
                                (2 ** 20, 1, 16, None)):
        assert (_worker_bytes(N, k, samples, held(N) if held else 0)
                > MC_SHARD_BYTES)
        with pytest.raises(ScaleLimitError, match="memory guard"):
            _sharded(N, k, samples, 1, 1, _never, held)
    # past int64 counting the guard raises before any draw, too
    with pytest.raises(ScaleLimitError, match="beyond k = 62"):
        _sharded(64, 63, 100, 1, 1, _never)


# (N, k) on int16 and int32 work tables, from histogram blocks of 128
# rows at N = 256 down to one row at N = 2^16, on int8, int16 and int32
# labels, and at the guard's edges at SHARD draws: the simulator's at
# N = 2^16, k = 29, and the estimators' at N = 2^16, k = 62, on int64
# work tables
WORKER_SIZES = [(64, 6), (256, 8), (1024, 12), (4096, 20), (2 ** 14, 14),
                (2 ** 16, 16), (2 ** 16, 29), (2 ** 16, 62)]


@pytest.mark.parametrize("N,k", WORKER_SIZES)
def test_one_worker_peaks_within_the_guard_estimate(N, k):
    # the guard's estimate is an upper bound on what one worker holds,
    # for each value kernel and both outcome reducers; one call before
    # the measured one keeps one-time lazy imports out of the peak
    samples = 64
    for call, held in (
            (lambda: success_mc(N, k, samples, seed=2), 0),
            (lambda: lsb_threshold_check(N, k, samples, seed=2), 0),
            (lambda: run_trials(N, k, 3, samples, seed=2), _outcome_bytes(N)),
            (lambda: run_trials(N, k, TRIVIAL, samples, seed=2),
             _outcome_bytes(N))):
        call()
        tracemalloc.start()
        call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= _worker_bytes(N, k, samples, held)


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
    def sink(xs, outcomes):
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
    # simulator and _mean see the same x for a given seed
    N, k, trials = 64, 6, SHARD + 5
    labels = np.concatenate(
        list(_sharded(N, k, trials, 11, 1, lambda rng, xs: xs)))
    _, columns = run_trials(N, k, 3, trials, seed=11, threads=threads)
    assert np.array_equal(columns["labels"], labels)


@pytest.mark.parametrize("hidden", [3, TRIVIAL])
def test_run_trials_sink_sees_the_columns_in_shard_order(hidden):
    # a sink gets each shard's labels, at their drawn width, and outcomes
    # as the pass yields them, and run_trials then keeps no columns
    N, k, trials = 64, 6, 3 * SHARD + 5
    rate, columns = run_trials(N, k, hidden, trials, seed=12, threads=2)
    seen = []
    streamed, none = run_trials(N, k, hidden, trials, seed=12, threads=2,
                                sink=lambda xs, out: seen.append((xs, out)))
    assert none is None and streamed == rate
    assert [len(out) for _, out in seen] == [SHARD] * 3 + [5]
    assert {xs.dtype for xs, _ in seen} == {np.dtype(np.int8)}
    assert columns["labels"].dtype == np.int64
    assert np.array_equal(np.concatenate([xs for xs, _ in seen]),
                          columns["labels"])
    assert np.array_equal(np.concatenate([out for _, out in seen]),
                          columns["outcomes"])


def test_run_trials_validates_count():
    with pytest.raises(ValueError):
        run_trials(4, 2, 0, 0, seed=1)


def test_shift_covariance_specific_pair():
    label = BlockLabel((1, 2), 4)
    base = outcome_distribution(label, 1).probs
    moved = outcome_distribution(label, 3).probs
    assert np.array_equal(np.roll(base[:4], 2), moved[:4])


def test_shift_covariance_zero_delta():
    label = BlockLabel((3, 1), 5)
    a = outcome_distribution(label, 2).probs
    b = outcome_distribution(label, 2).probs
    assert np.array_equal(a, b)


def test_shift_covariance_randomized():
    assert shift_covariance_check(8, 5, 100, seed=9)
    assert shift_covariance_check(6, 3, 50, seed=10)

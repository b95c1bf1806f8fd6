"""Success probabilities, thresholds, counting identities, information bounds."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_pgm import (ScaleLimitError, assemble_block_density,
                          certify_dihedral_pgm, chi_single_copy,
                          count_eta_batch, dense_block_effects, exact_sweep,
                          gram_operator, hidden_subgroup_state,
                          info_lower_bound, lsb_counting_sums, lsb_povm,
                          lsb_success_exact, lsb_threshold_check,
                          lsb_upper_bound, subgroup_elements, success_exact,
                          success_mc, success_single_copy, threshold_sweep,
                          trivial_success)
from dihedral_pgm import pgm, subsetsum, success
from dihedral_pgm.dihedral import _shift_permutation
from dihedral_pgm.subsetsum import CHUNK_BYTES, iter_all_eta
from dihedral_pgm.success import (SHARD, _exact_means, _lsb_values, _means,
                                  _success_values, _support_values)
from sk_oracle import counting_sums, threshold_envelope

#: Every (N, k) the certifiers check, the same set as in test_pgm.py.
CERT_SIZES = [(N, k) for N in (2, 3, 4, 5, 6, 8) for k in range(1, 13)
              if (2 * N) ** k <= 4096]

#: Orbit and full enumeration sum in different orders; 8 ulp of the
#: full-enumeration value bounds the difference (at most 3 seen).
ORBIT_ULPS = 8


def _close(orbit, full):
    return abs(orbit - full) <= ORBIT_ULPS * math.ulp(full)


def test_success_exact_two_by_one_is_exact():
    assert success_exact(2, 1).p == 0.75


@pytest.mark.parametrize("k", range(1, 15))
def test_success_exact_two_closed_form(k):
    # N = 2: eta = (2^(k-1), 2^(k-1)) except at x = 0, so p = 1 - 2^-(k+1)
    assert success_exact(2, k).p == 1 - 2.0 ** -(k + 1)


def test_success_exact_single_copy_closed_form():
    for N in range(2, 33):
        point = success_exact(N, 1)
        closed = success_single_copy(N)
        assert closed.method == "CLOSED_FORM"
        assert abs(point.p - (2 * N - 1) / N ** 2) < 1e-12
        assert abs(point.p - closed.p) < 1e-12


@pytest.mark.parametrize("N,k", [(2, 1), (2, 2), (3, 1), (4, 1)])
def test_success_exact_against_dense_trace(N, k):
    effects = dense_block_effects(N, k)
    p = success_exact(N, k).p
    for d in range(N):
        rho = assemble_block_density(d, k, N)
        assert abs(np.trace(effects[d] @ rho).real - p) < 1e-10


def test_success_exact_guard():
    with pytest.raises(ScaleLimitError, match="use success_mc"):
        success_exact(4096, 3)


def test_success_mc_reproduces_exact_value():
    point = success_mc(2, 1, 100000, seed=5)
    assert abs(point.p - 0.75) <= 4 * point.stderr


def test_success_mc_threshold_upper_branch():
    point = success_mc(64, 10, 10000, seed=7)
    assert point.p >= 1 / 8 - 4 * point.stderr


def test_success_mc_threshold_lower_branch():
    point = success_mc(1024, 5, 4000, seed=7)
    assert point.p <= 2 ** 5 / 1024 + 4 * point.stderr


def test_success_mc_deterministic_and_thread_invariant():
    a = success_mc(64, 6, 5000, seed=3)
    b = success_mc(64, 6, 5000, seed=3)
    c = success_mc(64, 6, 5000, seed=3, threads=4)
    assert (a.p, a.stderr) == (b.p, b.stderr) == (c.p, c.stderr)
    d = success_mc(64, 6, 5000, seed=4)
    assert d.p != a.p


@pytest.mark.parametrize("threads", [0, -1])
def test_mc_rejects_fewer_than_one_thread_before_any_draw(threads,
                                                          monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before the thread count was rejected")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match="max_workers"):
        success_mc(64, 6, 5000, seed=3, threads=threads)


@pytest.mark.parametrize("N,k", [(2, 12), (4, 5), (8, 4), (3, 7)])
def test_mc_kernel_reproduces_exact_bitwise(N, k, monkeypatch):
    # the MC kernel applied to every x of Z_N^k, reduced shard by shard
    # like the estimators
    xs = np.concatenate([chunk for chunk, _ in iter_all_eta(N, k)], axis=0)
    sums = [float(np.sum(_success_values(count_eta_batch(xs[lo:lo + SHARD], N),
                                         N, k)))
            for lo in range(0, xs.shape[0], SHARD)]
    p = math.fsum(sums) / xs.shape[0]
    # the orbit-weighted sum runs in another order
    assert _close(success_exact(N, k).p, p)
    # fed every label with weight 1 and distinct count 1, the exact
    # branch is that reduction to the last bit: one kernel serves both
    monkeypatch.setattr(success, "_exact_roots", lambda N, k: SimpleNamespace(
        prefixes=lambda j: N ** j))
    monkeypatch.setattr(success, "_orbit_walk", lambda N, k, roots, lo: (
        (k, np.ones(eta.shape[0], dtype=np.int64),
         np.ones(eta.shape[0], dtype=np.int64), eta)
        for _, eta in iter_all_eta(N, k)))
    assert _exact_means(N, [k], _success_values)[k] == p


def test_mc_stderr_is_shift_invariant():
    # the variance is merged from deviations about shard means, so a
    # constant offset on every per-draw value leaves the stderr alone
    def shifted(eta, N, k):
        return _success_values(eta, N, k) + 1e3

    mean, stderr = _means(64, [6], _success_values, 10000, seed=3)[6]
    mean_c, stderr_c = _means(64, [6], shifted, 10000, seed=3)[6]
    assert stderr > 0
    assert abs(stderr_c - stderr) <= 1e-12 * stderr
    assert abs(mean_c - 1e3 - mean) < 1e-9


def test_mc_stderr_matches_two_pass():
    # the merged shard variance is the two-pass variance of all draws
    N, k, samples = 64, 6, 10000
    v = np.concatenate([
        _success_values(count_eta_batch(xs, N), N, k)
        for xs in success._sharded(N, k, samples, 3, 1, lambda rng, xs: xs)])
    mean, stderr = _means(N, [k], _success_values, samples, seed=3)[k]
    assert abs(mean - math.fsum(v) / samples) <= 2 * math.ulp(mean)
    two_pass = math.sqrt(math.fsum((v - v.mean()) ** 2)
                         / (samples - 1) / samples)
    assert abs(stderr - two_pass) <= 1e-12 * two_pass


def test_value_kernels_hold_one_float_table():
    # beyond the (S, N) int64 counts the success kernel holds one float64
    # table and the parity kernel one rolled copy of the counts plus one
    # float64 product; on each counting chunk, these tables set a Monte
    # Carlo worker's peak
    N, k = 1024, 10
    xs = np.random.default_rng(5).integers(0, N, size=(SHARD, k))
    eta = count_eta_batch(xs, N)
    for kernel, bound in ((_success_values, 1.5), (_lsb_values, 2.5)):
        tracemalloc.start()
        kernel(eta, N, k)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < bound * eta.nbytes


def test_mc_shard_peak_memory_is_chunk_sized():
    # The value kernel runs on each cache-sized counting chunk, so a
    # shard holds its draws and a few CHUNK_BYTES of work and value
    # tables, never its (SHARD, N) counts: 32 MB at N = 1024.
    N, k = 1024, 10
    draws = SHARD * k * 8
    for call in (lambda: success_mc(N, k, SHARD, seed=6),
                 lambda: lsb_threshold_check(N, k, SHARD, seed=6)):
        tracemalloc.start()
        call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 16 * CHUNK_BYTES + draws


def test_exact_pass_peak_memory_is_block_sized(monkeypatch):
    # Every exact pass reduces each walk block as it comes: with 16 KB
    # blocks it holds the walk's level tables, one block's kernel tables
    # and one buffer per depth of min(SHARD, that depth's rows) values,
    # below the 366 KB that the 45,760 S_k-weighted values of (64, 3)
    # would take as one float64 array.  One call before the measured one
    # keeps one-time lazy imports out of the peak, whatever ran before.
    # The passes peak at 93-169 KB; exact_sweep with a full SHARD buffer
    # per depth would peak at 217 KB, above the bound.
    monkeypatch.setattr(subsetsum, "CHUNK_BYTES", 2 ** 14)
    N, k = 64, 3
    # the buffer sizes are checked directly too
    rows = Counter()
    for j, w, _, _ in success._orbit_walk(N, k, success._exact_roots(N, k),
                                          1):
        rows[j] += w.size
    sizes, shard_sum = [], success._ShardSum
    monkeypatch.setattr(success, "_ShardSum",
                        lambda size: sizes.append(size) or shard_sum(size))
    exact_sweep(N, range(1, k + 1))
    assert sizes == [min(SHARD, rows[j]) for j in range(1, k + 1)]
    calls = {"success_exact": lambda: success_exact(N, k),
             "exact_sweep": lambda: exact_sweep(N, range(1, k + 1)),
             "lsb_success_exact": lambda: lsb_success_exact(N, k),
             "trivial_success": lambda: trivial_success(N, k),
             "rank": lambda: gram_operator(N, k).rank()}
    for name, call in calls.items():
        call()
        tracemalloc.start()
        call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 200 * 1024, (name, peak)


def test_eta_row_sums():
    for _, eta in iter_all_eta(5, 4):
        assert np.all(eta.sum(axis=1) == 2 ** 4)


def test_trivial_success_small_values():
    assert trivial_success(2, 1) == 0.25
    # rank-based oracle at (2, 2): count occupied (x, p) pairs by hand
    occupied = 0
    for _, eta in iter_all_eta(2, 2):
        occupied += int(np.count_nonzero(eta, axis=1).sum())
    assert trivial_success(2, 2) == 1 - occupied / 16


def test_trivial_success_bounds():
    assert trivial_success(8, 7) >= 15 / 16
    assert trivial_success(2, 5) >= 1 - 2 / 2 ** 5


def test_trivial_success_mc_matches_exact():
    exact = trivial_success(8, 5)
    estimate = trivial_success(8, 5, samples=20000, seed=19)
    assert abs(exact - estimate) < 0.01


def test_trivial_success_dense_oracle():
    for N, k in [(2, 1), (2, 2), (4, 1)]:
        effects = dense_block_effects(N, k)
        leftover = np.eye((2 * N) ** k) - sum(effects)
        mixed = np.eye((2 * N) ** k) / (2 * N) ** k
        assert abs(np.trace(leftover @ mixed).real
                   - trivial_success(N, k)) < 1e-10


@pytest.mark.parametrize("N, k", [(8, 20), (2, 62), (16, 15)])
def test_gram_rank_does_not_wrap_past_the_guard(N, k, monkeypatch):
    # with the enumeration guard lifted, one block's dot of weights and
    # support sizes passes 2^63 at (8, 20), where an int64 dot read
    # -4,399,825,910,329; it reaches 2^63 - 1 at (2, 62), and the rank
    # passes 2^64 at (16, 15): each must equal the same rows summed as
    # Python integers, weights / distinct as exact fractions
    monkeypatch.setattr(success, "EXACT_ENUM_LIMIT", math.inf)
    by_distinct = Counter()
    for _, w, distinct, eta in subsetsum._orbit_walk(
            N, k, subsetsum._unit_roots(N, k)):
        for wi, di, ti in zip(w.tolist(), distinct.tolist(),
                              success._support_sizes(eta).tolist()):
            by_distinct[di] += wi * ti
    rank = sum(Fraction(s, d) for d, s in by_distinct.items())
    assert rank.denominator == 1
    assert success._gram_rank(N, k) == rank
    if (N, k) == (8, 20):
        assert rank == 9_223_367_637_028_865_479


def test_threshold_sweep_mixed_methods():
    points = threshold_sweep(64, range(2, 13), samples=2000, seed=7)
    assert len(points) == 11
    methods = {p.k: p.method for p in points}
    assert methods[2] == "EXACT" and methods[12] == "MC"
    by_k = {p.k: p for p in points}
    assert by_k[10].p >= 1 / 8 - 4 * by_k[10].stderr
    # monotone up to noise
    for k in range(3, 13):
        assert by_k[k].p >= by_k[k - 1].p - 4 * (by_k[k].stderr
                                                 + by_k[k - 1].stderr + 1e-9)


def test_threshold_sweep_exact_rows_are_success_exact():
    # 16^k <= SWEEP_EXACT_LIMIT for k <= 3
    points = threshold_sweep(16, [4, 1, 3, 2, 3], samples=500, seed=7)
    assert [p.method for p in points] == ["MC"] + ["EXACT"] * 4
    for point in points[1:]:
        assert point == success_exact(16, point.k)


@pytest.mark.parametrize("N,k_list,match", [
    (1024, [61, 62, 63], "beyond k = 62"),
    (2 ** 18, [2, 3, 14], "memory guard")])
def test_sweep_guards_every_monte_carlo_k_before_any_draw(N, k_list, match,
                                                          monkeypatch):
    # the guard reads every Monte Carlo k of the sweep first, so no k
    # before the one past it is walked, drawn or counted, and no worker
    # pool is started or asked for
    def never(*args, **kwargs):
        raise AssertionError("the sweep ran before its guard")

    for name in ("count_eta_batch", "_orbit_walk", "ThreadPoolExecutor",
                 "_pool"):
        monkeypatch.setattr(success, name, never)
    monkeypatch.setattr(np.random, "default_rng", never)
    with pytest.raises(ScaleLimitError, match=match):
        threshold_sweep(N, k_list, samples=3000, seed=1, threads=2)


def test_sweep_rejects_bad_domain():
    with pytest.raises(ValueError):
        threshold_sweep(64, [0, 1], samples=100, seed=1)


@pytest.mark.parametrize("N,k", [(0, 1), (2, 0), (-2, 1), (-100, 2)])
def test_walk_and_draws_reject_sizes_without_a_block(N, k):
    # both passes over Z_N^k, the Gram rank that runs the walk and the
    # counting sums that run none refuse N < 1 or k < 1 before their
    # guards or any table
    calls = [lambda: success._exact_roots(N, k),
             lambda: success._sharded(N, k, 10, 1, 1, lambda rng, xs: xs),
             lambda: gram_operator(N, k).rank(),
             lambda: lsb_counting_sums(N, k)]
    for call in calls:
        with pytest.raises(ValueError, match="need N >= 1 and k >= 1"):
            call()


@pytest.mark.parametrize("N, k_list", [
    (1024, range(8, 13)), (64, range(2, 13)), (1024, range(16, 21)),
    (2, [16, 14, 15, 16])])
def test_sweep_rows_at_the_largest_k_are_success_mc(N, k_list):
    # one pass at the largest Monte Carlo k K, drawn from the seed itself:
    # its row is success_mc at K and the sweep of K alone, bitwise, at
    # every worker count, on int16 tables (N = 1024, 64), uint16 tables
    # (K = 20) and int32 tables (N = 2, K = 16), with exact rows first
    # (N = 64) and a repeated k
    K = max(k_list)
    runs = [threshold_sweep(N, k_list, SHARD + 1, seed=11, threads=t)
            for t in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]
    assert [p.k for p in runs[0]] == list(k_list)
    last = [p for p in runs[0] if p.k == K]
    assert last[0] == success_mc(N, K, SHARD + 1, seed=11)
    assert threshold_sweep(N, [K], SHARD + 1, seed=11) == last[:1]


def test_sweep_guards_its_one_pass_at_the_price_of_every_depth(
        monkeypatch):
    # at N = 2^18 one pass at k = 5 fits the guard, but the sweep of
    # k = 1..5 holds four more float64 results a draw and does not: it
    # fails before any walk or draw
    success._mc_guard(2 ** 18, 5, SHARD)

    def never(*args, **kwargs):
        raise AssertionError("the sweep ran before its guard")

    for name in ("count_eta_batch", "_orbit_walk", "_pool"):
        monkeypatch.setattr(success, name, never)
    monkeypatch.setattr(np.random, "default_rng", never)
    with pytest.raises(ScaleLimitError, match="memory guard"):
        threshold_sweep(2 ** 18, range(1, 6), samples=SHARD, seed=1)


#: Monte Carlo sweeps on a grid up to N = 2^16: odd and even N, every k
#: of each range a Monte Carlo row (N^k > SWEEP_EXACT_LIMIT), across the
#: threshold k = log2 N, on int16, uint16, int32 and int64 tables.
MC_ENVELOPE_SWEEPS = [
    (2, range(15, 35), 2000), (8, range(5, 12), 2000),
    (16, range(4, 10), 2000), (27, range(3, 14), 2000),
    (64, range(3, 19), 1000), (1000, range(2, 17), 1000),
    (1024, range(2, 21), 1000), (4095, range(2, 18), 500),
    (2 ** 16, range(1, 20), 300)]


@pytest.mark.parametrize("N, k_list, samples", MC_ENVELOPE_SWEEPS)
def test_monte_carlo_rows_lie_in_the_threshold_envelope(N, k_list, samples):
    # 2^k / (N + 2^k - 1) <= p <= min(1, 2^k / N) within 5 se, compared
    # as Fractions, with 2^-40 p more for the rounding of a row whose
    # draws all give one value (se 0)
    for point in threshold_sweep(N, k_list, samples, seed=N):
        assert point.method == "MC"
        lo, hi = threshold_envelope(N, point.k)
        p = Fraction(point.p)
        slack = Fraction(5 * point.stderr + 2 ** -40 * point.p)
        assert lo - slack <= p <= hi + slack, (N, point.k, point)


@pytest.mark.parametrize("N, K", [(8, 8), (16, 6)])
def test_monte_carlo_rows_lie_near_the_exact_value(N, K):
    # where exact_sweep reaches, each Monte Carlo row of a sweep is within
    # 5 se of the exact value: k = 5..8 at N = 8, k = 4..6 at N = 16
    exact = {p.k: p.p for p in exact_sweep(N, range(1, K + 1))}
    mc = [p for p in threshold_sweep(N, range(1, K + 1), 4000, seed=K)
          if p.method == "MC"]
    assert [p.k for p in mc] == list(range(K - len(mc) + 1, K + 1))
    assert len(mc) >= 3
    for point in mc:
        assert abs(point.p - exact[point.k]) <= 5 * point.stderr, point


def test_bound_sandwich():
    for point in threshold_sweep(32, [2, 4, 6, 9], samples=3000, seed=13):
        assert point.p <= min(1.0, 2 ** point.k / 32) + 4 * point.stderr
        if point.k >= math.log2(32) + 4:
            assert point.p >= 1 / 8 - 4 * point.stderr


# ---------------------------------------------------------------------------
# parity bit
# ---------------------------------------------------------------------------

def test_lsb_exact_requires_even():
    with pytest.raises(ValueError, match="N must be even"):
        lsb_success_exact(3, 2)
    with pytest.raises(ValueError, match="N must be even"):
        lsb_threshold_check(3, 2, 100, seed=1)
    with pytest.raises(ValueError, match="N must be even"):
        lsb_counting_sums(3, 2)


@pytest.mark.parametrize("N,k", [(2, 1), (2, 2), (4, 1), (4, 2), (6, 1), (8, 1)])
def test_lsb_exact_matches_dense_trace(N, k):
    rho_plus = sum(assemble_block_density(d, k, N)
                   for d in range(0, N, 2)) * (2 / N)
    effects = dense_block_effects(N, k)
    E_plus = sum(effects[0::2])
    dense = np.trace(E_plus @ rho_plus).real
    assert abs(lsb_success_exact(N, k) - dense) < 1e-10


def test_lsb_exact_small_value():
    # dense-oracle value; the even/odd measurement at N=2, k=1 is the
    # full two-outcome measurement, whose success probability is 3/4
    assert abs(lsb_success_exact(2, 1) - 0.75) < 1e-12


def test_lsb_exact_below_bound():
    for N, k in [(2, 1), (4, 2), (8, 3), (6, 2)]:
        assert lsb_success_exact(N, k) <= lsb_upper_bound(N, k) + 1e-12


def test_lsb_threshold_check_values():
    point, bound = lsb_threshold_check(256, 4, 10000, seed=11)
    assert bound == 0.5 * (1 + 16 / 256 + 6 / 256 + 3 / 16)
    assert point.p <= bound + 4 * point.stderr
    point, bound = lsb_threshold_check(1024, 5, 4000, seed=11)
    assert abs(bound - 0.5 * (1 + 32 / 1024 + 6 / 1024 + 3 / 32)) < 1e-15
    assert point.p <= bound + 4 * point.stderr
    assert point.p >= 0.5  # parity guessing never loses to a coin


def test_lsb_threshold_check_small_case_matches_exact():
    point, _ = lsb_threshold_check(2, 1, 50000, seed=29)
    assert abs(point.p - lsb_success_exact(2, 1)) <= 4 * point.stderr


@pytest.mark.parametrize("N,k", [(4, 13), (8, 8), (16, 6), (2, 26)])
def test_counting_sums_at_the_guard(N, k):
    # N^k up to the enumeration guard: the sums enumerated over the S_k
    # walk in Python integers hit the closed forms exactly
    assert N ** k <= success.EXACT_ENUM_LIMIT
    counts = counting_sums(N, k)
    sum0, sum_half, cross = counts
    assert sum0 == N ** k + (2 ** k - 1) * N ** (k - 1)
    assert sum_half == (2 ** k - 1) * N ** (k - 1)
    assert cross == (N - 2) * (2 ** k - 1) * (2 ** k - 2) * N ** (k - 2)
    assert lsb_counting_sums(N, k) == counts


def test_counting_identities_exact():
    for N in (4, 6):
        for k in (1, 2, 3, 4):
            counts = counting_sums(N, k)
            sum0, sum_half, cross = counts
            assert sum0 == N ** (k - 1) * (2 ** k - 1) + N ** k
            assert sum_half == N ** (k - 1) * (2 ** k - 1)
            assert cross == (N - 2) * (2 ** k - 1) * (2 ** k - 2) * N ** (k - 2)
            assert lsb_counting_sums(N, k) == counts


@pytest.mark.parametrize("N,k", [(4, 5), (8, 20), (2, 100)])
def test_counting_sums_walk_nothing(N, k, monkeypatch):
    # the closed forms need no walk, so no enumeration guard: past it,
    # at (8, 20) and (2, 100), the sums exceed 2^63 and stay exact
    # Python integers
    def no_walk(*args, **kwargs):
        raise AssertionError("walked for the counting sums")

    monkeypatch.setattr(success, "_orbit_walk", no_walk)
    sums = lsb_counting_sums(N, k)
    assert all(type(s) is int for s in sums)
    assert sums[0] - sums[1] == N ** k
    if N ** k > success.EXACT_ENUM_LIMIT:
        assert max(sums) > 2 ** 63
        assert sums[2] == (N - 2) * (2 ** k - 1) * (2 ** k - 2) * N ** (k - 2)


# ---------------------------------------------------------------------------
# information bounds
# ---------------------------------------------------------------------------

def test_chi_small_values():
    assert abs(chi_single_copy(2) - 0.5) < 1e-9
    assert abs(chi_single_copy(4) - 0.75) < 1e-9


@pytest.mark.parametrize("N", [2, 3, 5, 8, 16, 33, 64])
def test_chi_formula(N):
    assert abs(chi_single_copy(N) - (1 - 1 / N)) < 1e-9


def _chi_all_shifts(N):
    """The all-shifts path: N dense states, N + 1 eigensolves."""
    states = [hidden_subgroup_state(subgroup_elements("order2", N, d=d))
              for d in range(N)]
    s_mix = success._entropy_bits(np.linalg.eigvalsh(sum(states) / N))
    s_each = [success._entropy_bits(np.linalg.eigvalsh(rho)) for rho in states]
    return s_mix - math.fsum(s_each) / N


def test_chi_matches_the_all_shifts_path():
    for N in range(2, 65):
        assert abs(chi_single_copy(N) - _chi_all_shifts(N)) <= 1e-12


@pytest.mark.parametrize("N", [5, 8, 13])
def test_shifted_states_are_permuted_rho_0(N):
    rho = hidden_subgroup_state(subgroup_elements("order2", N, d=0))
    for d in range(N):
        q = _shift_permutation(N, d)
        assert sorted(q.tolist()) == list(range(2 * N))
        assert np.array_equal(
            hidden_subgroup_state(subgroup_elements("order2", N, d=d)),
            rho[np.ix_(q, q)])


def test_chi_makes_two_eigensolves(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    chi_single_copy(16)
    # the mixture's and shift 0's N 2 x 2 blocks, one batched call each
    assert calls == [(16, 2, 2), (16, 2, 2)]


@pytest.mark.parametrize("N", [2, 3, 4, 8])
def test_single_copy_spectra(N):
    states = [hidden_subgroup_state(subgroup_elements("order2", N, d=d))
              for d in range(N)]
    for rho in states:
        lam = np.sort(np.linalg.eigvalsh(rho))
        assert np.abs(lam[:N]).max() < 1e-12
        assert np.abs(lam[N:] - 1 / N).max() < 1e-12
    lam = np.sort(np.linalg.eigvalsh(sum(states) / N))
    assert abs(lam[0]) < 1e-12
    assert np.abs(lam[1:-1] - 1 / (2 * N)).max() < 1e-12
    assert abs(lam[-1] - 1 / N) < 1e-12


def test_info_bound_values():
    assert info_lower_bound(2, 1.0).k_min == 2
    res = info_lower_bound(1024, 0.125)
    assert res.k_min == 1
    assert res.k_min < 10
    res = info_lower_bound(2 ** 20, 0.125)
    assert res.k_min == 2
    assert res.k_min < 20
    assert info_lower_bound(16, 1e-9).k_min == 1


def test_info_bound_is_the_displayed_formula():
    res = info_lower_bound(64, 0.3)
    h = -(0.3 * math.log2(0.3) + 0.7 * math.log2(0.7))
    rhs = math.log2(64) - 0.7 * math.log2(63) - h
    assert abs(res.i_p_lower - rhs) < 1e-12
    assert res.k_min == math.ceil(rhs / (1 - 1 / 64))
    assert abs(res.k_min_asymptotic - (0.3 * math.log2(63) - h)) < 1e-12


def test_info_bound_domain():
    with pytest.raises(ValueError):
        info_lower_bound(8, 0.0)
    with pytest.raises(ValueError):
        info_lower_bound(8, 1.5)
    with pytest.raises(ValueError):
        info_lower_bound(1, 0.5)


# ---------------------------------------------------------------------------
# orbit enumeration against full enumeration
# ---------------------------------------------------------------------------

def _full_enumeration(N, k):
    """Success, parity and support means, the parity counting sums and
    the number of occupied (x, p) pairs, over every label of Z_N^k."""
    kernels = [_success_values, _support_values]
    if N % 2 == 0:
        kernels.append(_lsb_values)
    sums = [[] for _ in kernels]
    counts = [0, 0, 0]
    occupied = 0
    half = N // 2
    for _, eta in iter_all_eta(N, k):
        for out, kernel in zip(sums, kernels):
            out.append(float(np.sum(kernel(eta, N, k))))
        counts[0] += int(eta[:, 0].sum())
        counts[1] += int(eta[:, half].sum())
        counts[2] += sum(int((eta[:, r] * eta[:, -r % N]).sum())
                         for r in range(N) if r not in (0, half))
        occupied += int(np.count_nonzero(eta))
    means = [math.fsum(out) / N ** k for out in sums]
    return means, tuple(counts), occupied


@pytest.mark.parametrize("N,k", CERT_SIZES + [(8, 7), (16, 5), (64, 3)])
def test_orbit_enumeration_matches_full(N, k):
    means, counts, occupied = _full_enumeration(N, k)
    assert _close(success_exact(N, k).p, means[0])
    assert _close(trivial_success(N, k), 1.0 - means[1])
    assert gram_operator(N, k).rank() == occupied
    if N % 2 == 0:
        assert _close(lsb_success_exact(N, k), means[2])
        assert lsb_counting_sums(N, k) == counts


#: Exact-mean sizes whose walks cross SHARD boundaries (4,247 and 16,359
#: representatives) or, at CHUNK_BYTES = 2^9, have blocks of 2 rows and
#: fewer block rows than roots (N = 64 has 7 divisors), and certifier
#: sizes, odd N and N = 2.
BLOCK_MEAN_SIZES = [(16, 5), (16, 6), (64, 3)]
BLOCK_CERT_SIZES = [(8, 3), (2, 6)]


def _exact_results():
    """reprs of every exact pass at BLOCK_MEAN_SIZES, of the one-walk
    sweep to each of them, and of both certifiers' reports, shift 0 and
    1, at BLOCK_CERT_SIZES."""
    out = []
    for N, k in BLOCK_MEAN_SIZES:
        out += [success_exact(N, k).p, trivial_success(N, k),
                gram_operator(N, k).rank(), lsb_success_exact(N, k),
                lsb_counting_sums(N, k), exact_sweep(N, range(1, k + 1))]
    for N, k in BLOCK_CERT_SIZES:
        povm = lsb_povm(N, k)
        for shift in (0, 1):
            for report in (certify_dihedral_pgm(N, k, assignment_shift=shift),
                           pgm._certify_blocks(
                               N, k, lambda eta: povm._conditions(eta, shift))):
                out.append((report.hermiticity_residual,
                            report.dominance_min_eigenvalue,
                            report.worst_block))
    return [repr(v) for v in out]


@pytest.mark.parametrize("chunk_bytes", [2 ** 9, 2 ** 13])
def test_exact_results_do_not_depend_on_the_walk_block_size(chunk_bytes,
                                                             monkeypatch):
    # the walk's blocks are sized from CHUNK_BYTES; every exact result,
    # the fsum-merged means included, is bitwise the same at any size
    expect = _exact_results()
    monkeypatch.setattr(subsetsum, "CHUNK_BYTES", chunk_bytes)
    assert _exact_results() == expect


# ---------------------------------------------------------------------------
# one walk per exact sweep
# ---------------------------------------------------------------------------

def _sweep_sizes(log2: int = 16):
    """(N, lo, hi) with 1 <= lo <= hi and N^hi <= 2^log2."""
    return st.integers(2, 256).flatmap(lambda N: st.integers(
        1, max(1, int(log2 / math.log2(N) + 1e-9))).flatmap(
            lambda hi: st.tuples(st.just(N), st.integers(1, hi),
                                 st.just(hi))))


def _check_sweep(N, lo, hi):
    # every point of the one walk is the one-k walk's, to the last bit
    points = exact_sweep(N, range(lo, hi + 1))
    assert [p.k for p in points] == list(range(lo, hi + 1))
    for point in points:
        assert point == success_exact(N, point.k)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_sweep_sizes())
def test_exact_sweep_matches_success_exact_bitwise(size):
    _check_sweep(*size)


# depth 5 of (16, 6) holds 4,247 rows and crosses a SHARD boundary before
# the deepest level; (2, 14..15) walks the int16 depth 14 in int32
@pytest.mark.parametrize("N,lo,hi", [(16, 1, 6), (2, 14, 15)])
def test_exact_sweep_matches_success_exact_at_the_edges(N, lo, hi):
    _check_sweep(N, lo, hi)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(st.integers(2, 64), st.integers(2, 2 ** 16)))
def test_exact_success_lies_in_the_threshold_envelope(N):
    # every exact size of N with N^k <= 2^16, compared as Fractions:
    # 2^k / (N + 2^k - 1) <= p <= min(1, 2^k / N)
    K = 1
    while N ** (K + 1) <= 2 ** 16:
        K += 1
    for point in exact_sweep(N, range(1, K + 1)):
        lo, hi = threshold_envelope(N, point.k)
        assert lo <= Fraction(point.p) <= hi, (N, point.k, point.p)


def test_exact_sweep_keeps_the_order_of_k():
    points = exact_sweep(8, [3, 1, 3, 2])
    assert [p.k for p in points] == [3, 1, 3, 2]
    assert points[0] == points[2] == success_exact(8, 3)
    assert exact_sweep(8, []) == []


@pytest.mark.parametrize("N,hi", [(2, 27), (8, 9)])
def test_exact_sweep_guards_the_largest_k_before_any_walk(N, hi, monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked before the guard")

    monkeypatch.setattr(success, "_orbit_walk", no_walk)
    with pytest.raises(ScaleLimitError, match="enumeration guard"):
        exact_sweep(N, range(1, hi + 1))
    with pytest.raises(ValueError, match="need N >= 2 and k >= 1"):
        exact_sweep(N, [0, 2])

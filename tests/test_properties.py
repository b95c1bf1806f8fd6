"""Properties of the estimator core, checked with hypothesis.

* Exact statistics equal a slow per-label reference built from
  BlockLabel.from_flat and the Python-integer count_eta, which shares no
  code with count_eta_batch or iter_all_eta.
* The orbit enumerator behind every exact mean visits each multiset of
  coordinates once, in chunks of at most `batch` rows, with a weight
  equal to the number of labels that sort to it.
* Monte Carlo statistics and trial columns are bitwise independent of
  the thread count, at sample counts on both sides of one shard.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_pgm import (TRIVIAL, BlockLabel, count_eta, lsb_success_exact,
                          lsb_threshold_check, run_trials, success_exact,
                          success_mc, trivial_success)
from dihedral_pgm.subsetsum import (_iter_orbit_eta, _nondecreasing_blocks,
                                    _orbit_weights)
from dihedral_pgm.success import SHARD, _mean, _support_values

ORACLE_ENUM = 4096
THREADS = (1, 2, 3)
SAMPLES = (SHARD - 1, SHARD, SHARD + 1)

settings.register_profile("core", max_examples=12, deadline=None,
                          derandomize=True)
core = settings.get_profile("core")


def _oracle_sizes(even: bool = False):
    """(N, k) with N^k <= ORACLE_ENUM, and N even when asked."""
    Ns = st.integers(1, 32).map(lambda h: 2 * h) if even else st.integers(2, 64)
    return Ns.flatmap(lambda N: st.tuples(
        st.just(N), st.integers(1, int(math.log(ORACLE_ENUM, N) + 1e-9))))


def _reference(N: int, k: int, value) -> float:
    """fsum over every label x of value(eta^x), divided by N^k."""
    total = math.fsum(value(count_eta(BlockLabel.from_flat(X, N, k)).eta)
                      for X in range(N ** k))
    return total / N ** k


@core
@given(_oracle_sizes())
def test_success_exact_matches_per_label_reference(size):
    N, k = size
    ref = _reference(N, k, lambda eta: sum(math.sqrt(e) for e in eta) ** 2
                     / (2 ** k * N))
    assert abs(success_exact(N, k).p - ref) < 1e-12


@core
@given(_oracle_sizes(even=True))
def test_lsb_success_exact_matches_per_label_reference(size):
    N, k = size
    half = N // 2
    ref = _reference(N, k, lambda eta: 0.5 * (1.0 + sum(
        math.sqrt(eta[r] * eta[(r + half) % N]) for r in range(N)) / 2 ** k))
    assert abs(lsb_success_exact(N, k) - ref) < 1e-12


@core
@given(_oracle_sizes())
def test_trivial_success_exact_matches_per_label_reference(size):
    N, k = size
    ref = 1.0 - _reference(N, k, lambda eta: sum(e > 0 for e in eta) / 2 ** k)
    assert abs(trivial_success(N, k) - ref) < 1e-12


@core
@given(_oracle_sizes(), st.integers(1, 64))
def test_orbit_weights_count_sorted_labels(size, batch):
    N, k = size
    labels = [BlockLabel.from_flat(X, N, k) for X in range(N ** k)]
    orbits = Counter(tuple(sorted(label.x)) for label in labels)
    reps = np.concatenate(list(_nondecreasing_blocks(N, k)))
    weights = _orbit_weights(reps)
    # one row per multiset, in lexicographic order
    assert [tuple(x) for x in reps.tolist()] == sorted(orbits)
    assert weights.tolist() == [orbits[tuple(x)] for x in reps.tolist()]
    assert int(weights.sum()) == N ** k
    chunks = list(_iter_orbit_eta(N, k, batch))
    assert len(chunks) == -(-len(orbits) // batch)
    assert all(eta.shape[0] <= batch for _, eta in chunks)
    assert np.array_equal(np.concatenate([w for w, _ in chunks]), weights)
    eta = np.concatenate([eta for _, eta in chunks])
    assert eta.tolist() == [list(count_eta(BlockLabel(tuple(x), N)).eta)
                            for x in reps.tolist()]


def _mc_cases():
    return st.tuples(st.integers(2, 16).map(lambda h: 2 * h),
                     st.integers(1, 10), st.integers(0, 2 ** 32 - 1))


@pytest.mark.parametrize("samples", SAMPLES)
@settings(parent=core, max_examples=4)
@given(_mc_cases())
def test_mc_estimators_thread_invariant(samples, case):
    N, k, seed = case
    points = {(p.p, p.stderr) for p in
              (success_mc(N, k, samples, seed, threads=t) for t in THREADS)}
    assert len(points) == 1
    lsb = {(p.p, p.stderr, bound) for p, bound in
           (lsb_threshold_check(N, k, samples, seed, threads=t)
            for t in THREADS)}
    assert len(lsb) == 1
    # trivial_success runs the same reducer single-threaded
    leftover = {1.0 - _mean(N, k, _support_values, samples, seed, t)[0]
                for t in THREADS}
    assert leftover == {trivial_success(N, k, samples, seed)}


@pytest.mark.parametrize("samples", SAMPLES)
@settings(parent=core, max_examples=4)
@given(_mc_cases(), st.booleans())
def test_run_trials_columns_thread_invariant(samples, case, trivial):
    N, k, seed = case
    hidden = TRIVIAL if trivial else seed % N
    runs = [run_trials(N, k, hidden, samples, seed, threads=t)
            for t in THREADS]
    rate, columns = runs[0]
    assert columns["labels"].shape == (samples, k)
    assert columns["outcomes"].shape == (samples,)
    for other_rate, other in runs[1:]:
        assert other_rate == rate
        assert np.array_equal(other["labels"], columns["labels"])
        assert np.array_equal(other["outcomes"], columns["outcomes"])

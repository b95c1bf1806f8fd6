"""Properties of the estimator core, checked with hypothesis.

* Exact statistics equal a slow per-label reference built from
  BlockLabel.from_flat and count_eta (the last row of the np.roll table
  _dp_rows), which shares no code with count_eta_batch or the orbit
  enumerator.
* The orbit walk behind every exact mean visits each multiset of
  coordinates once, in chunks of at most `batch` rows, with a weight
  equal to the number of labels that sort to it; its weights and counts
  equal, shard by shard and in the work dtype, those of the reference
  enumerator it replaced (orbit_reference) counted by count_eta_batch.
* count_eta_batch, which counts in byte-budgeted chunks on int16, int32
  or int64 work tables seeded from the subset sums of the first m
  coordinates, is bitwise equal to the last row of _dp_rows at row
  counts on both sides of one chunk, for every work dtype and for k on
  both sides of m; and every reducer the program hands it gives, chunk
  by chunk, per-row results bitwise equal to the same function applied
  to the whole int64 table.
* Monte Carlo statistics and trial columns are bitwise independent of
  the thread count, at sample counts on both sides of one shard, and on
  shards that span several chunks.
"""

import math
from collections import Counter
from itertools import islice, zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_pgm import (TRIVIAL, BlockLabel, count_eta, lsb_success_exact,
                          lsb_threshold_check, run_trials, success_exact,
                          success_mc, trivial_success)
from dihedral_pgm.simulate import _outcomes
from dihedral_pgm.subsetsum import (CHUNK_BYTES, INT16_K_LIMIT,
                                    INT32_K_LIMIT, _dp_rows,
                                    _iter_orbit_eta, _prefix_width,
                                    count_eta_batch)
from dihedral_pgm.success import (SHARD, _counting_terms, _lsb_values,
                                  _mean, _success_values, _support_sizes,
                                  _support_values)
from orbit_reference import _nondecreasing_blocks, _orbit_weights

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


def _reference_shards(N: int, k: int, batch: int):
    """The reference's nondecreasing rows in chunks of `batch`, built
    lazily, one leading digit at a time."""
    held = np.empty((0, k), dtype=np.int64)
    for block in _nondecreasing_blocks(N, k):
        held = np.concatenate([held, block])
        while held.shape[0] >= batch:
            yield held[:batch]
            held = held[batch:]
    if held.shape[0]:
        yield held


# (2, 14) and (2, 15) count on int16 and int32 tables, (2, 26) is the
# deepest walk, and at (300, 2) and (2048, 2) the children of one prefix
# span several level blocks; (2048, 2) is compared on its first shards
# only, which cover the first prefixes whole
@pytest.mark.parametrize("N,k,shards", [(2, 14, None), (2, 15, None),
                                        (2, 26, None), (300, 2, None),
                                        (2048, 2, 3)])
def test_orbit_walk_matches_reference_and_count_eta_batch(N, k, shards):
    seen = []

    def keep(rows, eta):
        seen.append(rows)
        return eta

    walk = islice(_iter_orbit_eta(N, k, SHARD, keep), shards)
    pairs = list(zip_longest(walk, islice(_reference_shards(N, k, SHARD),
                                          shards)))
    # as many shards on both sides
    assert all(item is not None for pair in pairs for item in pair)
    for (weights, eta), xs in pairs:
        assert np.array_equal(weights, _orbit_weights(xs))
        expect = count_eta_batch(xs, N, lambda rows, chunk: chunk)
        assert eta.dtype == expect.dtype
        assert np.array_equal(eta, expect)
    # the reducer saw the walk positions in order, each once
    assert seen[0].start == 0
    assert all(a.stop == b.start for a, b in zip(seen, seen[1:]))
    assert seen[-1].stop >= sum(xs.shape[0] for _, xs in pairs)


def _kernel_sizes():
    """(N, k): N <= 2048 with k on both sides of the int16/int32 switch
    after k = INT16_K_LIMIT and of N's prefix width m, and k = 28..40 at
    N <= 4, across the int32/int64 switch after k = INT32_K_LIMIT."""
    def ks(N):
        m = _prefix_width(N)
        edges = {max(1, m - 1), max(1, m), m + 1, INT16_K_LIMIT,
                 INT16_K_LIMIT + 1}
        return st.one_of(st.sampled_from(sorted(edges)), st.integers(1, 16))
    return st.one_of(
        st.integers(1, 2048).flatmap(lambda N: st.tuples(st.just(N), ks(N))),
        st.tuples(st.integers(1, 4),
                  st.one_of(st.sampled_from((INT32_K_LIMIT, INT32_K_LIMIT + 1)),
                            st.integers(28, 40))))


#: Row counts as (full counting chunks, extra rows): one row, one chunk
#: with one row missing, none or one over, and two chunks and one row,
#: so a later chunk reuses a work table that still holds the rows of the
#: one before.
ROW_COUNTS = ((0, 1), (1, -1), (1, 0), (1, 1), (2, 1))


def _kernel_rows(size, rows, data):
    """(N, k, pool, which, xs): S = chunks * chunk + extra rows for
    rows = (chunks, extra), each row one of a few distinct x (so the slow
    reference runs once per x) plus multiples of N (so entries must be
    reduced mod N)."""
    N, k = size
    itemsize = (2 if k <= INT16_K_LIMIT else
                4 if k <= INT32_K_LIMIT else 8)
    chunk = max(1, CHUNK_BYTES // (N * itemsize))
    chunks, extra = rows
    S = chunks * chunk + extra
    pool = np.array(data.draw(st.lists(
        st.lists(st.integers(0, N - 1), min_size=k, max_size=k),
        min_size=1, max_size=8)), dtype=np.int64)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    which = rng.integers(0, len(pool), size=S)
    xs = pool[which] + N * rng.integers(-2, 3, size=(S, k))
    return N, k, pool, which, xs


@settings(parent=core, max_examples=30)
@given(_kernel_sizes(), st.sampled_from(ROW_COUNTS), st.data())
def test_count_eta_batch_matches_dp_rows(size, rows, data):
    N, k, pool, which, xs = _kernel_rows(size, rows, data)
    eta = count_eta_batch(xs, N)
    assert eta.dtype == np.int64 and eta.shape == (xs.shape[0], N)
    ref = np.array([_dp_rows(BlockLabel(tuple(x), N))[-1]
                    for x in pool.tolist()], dtype=np.int64)
    assert np.array_equal(eta, ref[which])
    # a reducer may return a view of its chunk: the chunk is copied out
    # before the work table is reused
    assert np.array_equal(count_eta_batch(xs, N, lambda r, chunk: chunk),
                          eta)


@settings(parent=core, max_examples=30)
@given(_kernel_sizes(), st.sampled_from(ROW_COUNTS), st.data())
def test_chunk_reducers_match_the_int64_table(size, rows, data):
    # every reducer the program hands count_eta_batch sees the counts in
    # the chunk's work dtype; its per-row results must not depend on that
    # dtype or on where the chunks are cut
    N, k, _, _, xs = _kernel_rows(size, rows, data)
    S = xs.shape[0]
    u = np.random.default_rng(S).random(S)
    table = count_eta_batch(xs, N)
    reducers = [
        lambda rows, eta: _success_values(eta, N, k),
        lambda rows, eta: _lsb_values(eta, N, k),
        lambda rows, eta: _support_values(eta, N, k),
        lambda rows, eta: _support_sizes(eta),
        lambda rows, eta: _counting_terms(eta, N),
        lambda rows, eta: _outcomes(eta, N, k, N // 2, u[rows]),
        lambda rows, eta: _outcomes(eta, N, k, TRIVIAL, u[rows]),
    ]
    for reduce in reducers:
        fused = count_eta_batch(xs, N, reduce)
        whole = reduce(slice(0, S), table)
        assert fused.dtype == whole.dtype and fused.shape == whole.shape
        assert np.array_equal(fused, whole)


def _mc_cases(Ns=st.integers(2, 16).map(lambda h: 2 * h)):
    return st.tuples(Ns, st.integers(1, 10), st.integers(0, 2 ** 32 - 1))


def _assert_mc_thread_invariant(samples, case):
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


def _assert_trials_thread_invariant(samples, case, trivial):
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


@pytest.mark.parametrize("samples", SAMPLES)
@settings(parent=core, max_examples=4)
@given(_mc_cases())
def test_mc_estimators_thread_invariant(samples, case):
    _assert_mc_thread_invariant(samples, case)


@pytest.mark.parametrize("samples", SAMPLES)
@settings(parent=core, max_examples=4)
@given(_mc_cases(), st.booleans())
def test_run_trials_columns_thread_invariant(samples, case, trivial):
    _assert_trials_thread_invariant(samples, case, trivial)


@settings(parent=core, max_examples=2)
@given(_mc_cases(st.sampled_from((512, 1024))), st.booleans())
def test_multi_chunk_shards_thread_invariant(case, trivial):
    # at N >= 512 each shard spans several count and outcome chunks
    _assert_mc_thread_invariant(SHARD + 1, case)
    _assert_trials_thread_invariant(SHARD + 1, case, trivial)

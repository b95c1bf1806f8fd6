"""Properties of the estimator core, checked with hypothesis.

* Exact statistics equal a slow per-label reference built from
  BlockLabel.from_flat and count_eta (the last row of the np.roll table
  _dp_rows), which shares no code with count_eta_batch or the orbit
  enumerator.
* The orbit walk from its empty prefix (the S_k walk behind the
  certifiers, and the oracle of the exact means' finer walk in
  test_exact_oracle) visits each multiset of coordinates once, with a
  weight equal to the number of labels that sort to it; its weights and
  counts, regrouped into shards, equal shard by shard and in the work
  dtype those of the reference enumerator it replaced (orbit_reference)
  counted by count_eta_batch.
* count_eta_batch, which counts in byte-budgeted chunks on int16, int32
  or int64 work tables, or on uint16 tables certified row by row by
  their sums, seeded from the subset sums of the first m coordinates, is
  bitwise equal to the last row of _dp_rows at row counts on both sides
  of one chunk, for every work dtype, for k on both sides of m and of
  the uint16 rule, and on labels whose counts pass 2^16, which the
  certificate must send back to the exact type; and every reducer the
  program hands it gives, block by block, per-row results bitwise equal
  to the same function applied to the whole exact int64 table (the last
  rows of _dp_rows), under three byte budgets that cut the chunks and
  blocks at different rows, and on no rows at all.
  It reads labels of any integer width bitwise alike.  In its support
  mode, on bool tables, its support sizes equal count_nonzero of the
  exact table at every k of those work dtypes.
* The Monte Carlo labels, drawn as int64 a chunk at a time and held at
  the width of N, equal one int64 draw of the whole shard and leave the
  generator where that draw leaves it.
* Monte Carlo statistics and trial columns are bitwise independent of
  the thread count, at sample counts on both sides of one shard, and on
  shards that span several chunks.
"""

import math
from collections import Counter
from itertools import islice, zip_longest

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dihedral_pgm import (TRIVIAL, BlockLabel, count_eta, lsb_success_exact,
                          lsb_threshold_check, run_trials, success_exact,
                          success_mc, trivial_success)
from dihedral_pgm import subsetsum
from dihedral_pgm.simulate import (_miss_plan, _outcome_rows, _outcomes,
                                   _trivial_outcomes)
from dihedral_pgm.subsetsum import (CHUNK_BYTES, INT16_K_LIMIT,
                                    INT32_K_LIMIT, UINT16_MEAN_LIMIT,
                                    _batch_dtype, _dp_rows, _orbit_walk,
                                    _prefix_width, count_eta_batch)
from dihedral_pgm.success import (SHARD, _draw_labels, _label_dtype,
                                  _lsb_values, _mean, _success_values,
                                  _support_sizes, _support_values)
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
@given(_oracle_sizes())
def test_orbit_weights_count_sorted_labels(size):
    N, k = size
    labels = [BlockLabel.from_flat(X, N, k) for X in range(N ** k)]
    orbits = Counter(tuple(sorted(label.x)) for label in labels)
    reps = np.concatenate(list(_nondecreasing_blocks(N, k)))
    weights = _orbit_weights(reps)
    # one row per multiset, in lexicographic order
    assert [tuple(x) for x in reps.tolist()] == sorted(orbits)
    assert weights.tolist() == [orbits[tuple(x)] for x in reps.tolist()]
    assert int(weights.sum()) == N ** k
    # the walk's blocks are views valid until the next one: copy each
    blocks = [(w, eta.copy()) for _, w, _, eta in _orbit_walk(N, k)]
    assert np.array_equal(np.concatenate([w for w, _ in blocks]), weights)
    eta = np.concatenate([eta for _, eta in blocks])
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


def _walk_shards(N: int, k: int, batch: int):
    """The walk's (weights, eta) blocks regrouped into chunks of `batch`
    rows, the rest in the last; each block is copied before the walk
    overwrites its tables."""
    ws, etas, held = [], [], 0
    for _, w, _, eta in _orbit_walk(N, k):
        ws.append(w)
        etas.append(eta.copy())
        held += w.shape[0]
        while held >= batch:
            w_all, eta_all = np.concatenate(ws), np.concatenate(etas)
            yield w_all[:batch], eta_all[:batch]
            ws, etas, held = [w_all[batch:]], [eta_all[batch:]], held - batch
    if held:
        yield np.concatenate(ws), np.concatenate(etas)


# (2, 14) and (2, 15) count on int16 and int32 tables, (2, 26) is the
# deepest walk, and at (300, 2) and (2048, 2) the children of one prefix
# span several level blocks; (2048, 2) is compared on its first shards
# only, which cover the first prefixes whole
@pytest.mark.parametrize("N,k,shards", [(2, 14, None), (2, 15, None),
                                        (2, 26, None), (300, 2, None),
                                        (2048, 2, 3)])
def test_orbit_walk_matches_reference_and_count_eta_batch(N, k, shards):
    pairs = list(zip_longest(islice(_walk_shards(N, k, SHARD), shards),
                             islice(_reference_shards(N, k, SHARD), shards)))
    # as many shards on both sides
    assert all(item is not None for pair in pairs for item in pair)
    for (weights, eta), xs in pairs:
        assert np.array_equal(weights, _orbit_weights(xs))
        expect = count_eta_batch(xs, N, lambda rows, chunk: chunk)
        assert eta.dtype == expect.dtype
        assert np.array_equal(eta, expect)


def _kernel_sizes(tables: str):
    """(N, k) that count on the work tables named: "int16", N <= 2048
    with k on both sides of the int16 switch after k = INT16_K_LIMIT and
    of N's prefix width m; "int32-int64", k = 28..40 at N <= 4, across
    the int32/int64 switch after k = INT32_K_LIMIT; "uint16",
    8 <= N <= 4096 with k = 15..30 on both sides of the uint16 rule
    2^k <= UINT16_MEAN_LIMIT N, whose largest k there is 15..24.  Each
    kernel property runs once for each, so every work dtype is drawn
    whatever the order of the branches."""
    def ks(N):
        m = _prefix_width(N)
        edges = {max(1, m - 1), max(1, m), m + 1, INT16_K_LIMIT,
                 INT16_K_LIMIT + 1}
        return st.one_of(st.sampled_from(sorted(edges)), st.integers(1, 16))

    def narrow_ks(N):
        # the largest k of the uint16 rule, the next, and a k on either
        # side of them
        last = (UINT16_MEAN_LIMIT * N).bit_length() - 1
        return st.one_of(st.sampled_from((last, last + 1)),
                         st.integers(INT16_K_LIMIT + 1, last),
                         st.integers(last + 1, 30))
    if tables == "int16":
        return st.integers(1, 2048).flatmap(
            lambda N: st.tuples(st.just(N), ks(N)))
    if tables == "int32-int64":
        return st.tuples(
            st.integers(1, 4),
            st.one_of(st.sampled_from((INT32_K_LIMIT, INT32_K_LIMIT + 1)),
                      st.integers(28, 40)))
    assert tables == "uint16"
    return st.integers(8, 4096).flatmap(
        lambda N: st.tuples(st.just(N), narrow_ks(N)))


#: The branches of _kernel_sizes, one run of each kernel property apiece.
KERNEL_TABLES = ("int16", "int32-int64", "uint16")


#: Row counts as (full counting chunks, extra rows): one row, one chunk
#: with one row missing, none or one over, and two chunks and one row,
#: so a later chunk reuses a work table that still holds the rows of the
#: one before.
ROW_COUNTS = ((0, 1), (1, -1), (1, 0), (1, 1), (2, 1))


def _kernel_rows(size, rows, data, support=False):
    """(N, k, pool, which, xs): S = chunks * chunk + extra rows for
    rows = (chunks, extra), the chunk of the bool tables of
    count_eta_batch's support mode when support, each row one of a few
    distinct x (so the slow
    reference runs once per x) plus multiples of N (so entries must be
    reduced mod N).  From k = 16 on, an x may have 16 or more zero
    coordinates, which makes every count a multiple of 2^16: uint16
    tables hold none of its nonzero counts, so its rows fail the row-sum
    certificate."""
    N, k = size
    itemsize = 1 if support else np.dtype(_batch_dtype(N, k)).itemsize
    # read at call time: a test may set CHUNK_BYTES
    chunk = max(1, subsetsum.CHUNK_BYTES // (N * itemsize))
    chunks, extra = rows
    S = chunks * chunk + extra
    x = st.lists(st.integers(0, N - 1), min_size=k, max_size=k)
    if k >= 16:
        x = st.one_of(x, st.integers(16, k).flatmap(
            lambda zeros: st.lists(st.integers(0, N - 1), min_size=k - zeros,
                                   max_size=k - zeros)
            .flatmap(lambda rest: st.permutations([0] * zeros + rest))))
    pool = np.array(data.draw(st.lists(x, min_size=1, max_size=8)),
                    dtype=np.int64)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    which = rng.integers(0, len(pool), size=S)
    xs = pool[which] + N * rng.integers(-2, 3, size=(S, k))
    return N, k, pool, which, xs


@pytest.mark.parametrize("tables", KERNEL_TABLES)
@settings(parent=core, max_examples=30)
@given(st.sampled_from(ROW_COUNTS), st.data())
def test_count_eta_batch_matches_dp_rows(tables, rows, data):
    size = data.draw(_kernel_sizes(tables))
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


@pytest.mark.parametrize("tables", KERNEL_TABLES)
@settings(parent=core, max_examples=30)
@given(st.sampled_from(ROW_COUNTS), st.data())
def test_count_eta_batch_reads_every_label_width(tables, rows, data):
    # the Monte Carlo pass hands count_eta_batch labels in [0, N) at the
    # width of N (_label_dtype); counts and values must not depend on it
    N, k, _, _, xs = _kernel_rows(data.draw(_kernel_sizes(tables)), rows,
                                  data)
    labels = xs % N

    def value(rows, chunk):
        return _success_values(chunk, N, k)

    eta, values = count_eta_batch(labels, N), count_eta_batch(labels, N, value)
    for width in (np.int8, np.int16, np.int32):
        if N <= np.iinfo(width).max:
            narrow = labels.astype(width)
            assert np.array_equal(count_eta_batch(narrow, N), eta)
            assert np.array_equal(count_eta_batch(narrow, N, value), values)


@pytest.mark.parametrize("N", [127, 128, 32767, 32768, 65535, 65536])
def test_count_eta_batch_at_the_label_width_edges(N):
    # N - x must stay in range at the width _label_dtype picks for N
    rng = np.random.default_rng(N)
    labels = rng.integers(0, N, size=(3, 3))
    labels[0] = N - 1
    labels[1] = 0
    narrow = labels.astype(_label_dtype(N))
    assert np.array_equal(narrow, labels)
    assert np.array_equal(count_eta_batch(narrow, N),
                          count_eta_batch(labels, N))


@settings(parent=core, max_examples=40)
@given(st.one_of(st.sampled_from((32767, 32768, 65535, 65536)),
                 st.integers(1, 2 ** 20)),
       st.one_of(st.sampled_from((1, 8, 20, 61, 62)), st.integers(1, 62)),
       st.one_of(st.sampled_from((1, SHARD - 1, SHARD)),
                 st.integers(1, SHARD)),
       st.integers(0, 2 ** 32 - 1))
def test_chunked_narrow_draws_are_one_int64_draw(N, k, n, seed):
    chunked, whole = np.random.default_rng(seed), np.random.default_rng(seed)
    xs = _draw_labels(chunked, N, n, k)
    assert xs.dtype == _label_dtype(N) and xs.shape == (n, k)
    assert np.array_equal(xs, whole.integers(0, N, size=(n, k)))
    assert chunked.bit_generator.state == whole.bit_generator.state
    assert chunked.random() == whole.random()


# no shrinking: a failing example is reported as drawn, where shrinking
# it through the sizes and the three byte budgets ran for over 600 s
@pytest.mark.parametrize("tables", KERNEL_TABLES)
@settings(parent=core, max_examples=30,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(st.sampled_from(ROW_COUNTS), st.data())
def test_chunk_reducers_match_the_int64_table(tables, rows, data):
    # every reducer the program hands count_eta_batch sees the counts in
    # the work dtype, in blocks of a counting chunk; its per-row results
    # must be those of the exact counts, and must not depend on that
    # dtype, on a block's recounted rows or on where the chunks, the prefix
    # histograms' blocks and the reducer's blocks are cut, which the
    # byte budgets 2^9 and 2^13 cut at other rows than the default
    size = data.draw(_kernel_sizes(tables))
    for chunk_bytes in (2 ** 9, 2 ** 13, CHUNK_BYTES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subsetsum, "CHUNK_BYTES", chunk_bytes)
            _assert_reducers_match(*_kernel_rows(size, rows, data))


def _assert_reducers_match(N, k, pool, which, xs):
    S = xs.shape[0]
    u = np.random.default_rng(S).random(S)
    # the exact int64 table, from the slow reference
    table = np.array([_dp_rows(BlockLabel(tuple(x), N))[-1]
                      for x in pool.tolist()], dtype=np.int64)[which]
    d = N // 2
    plan, cdf = _miss_plan(N, d), np.empty((_outcome_rows(N), N))
    reducers = [
        lambda rows, eta: _success_values(eta, N, k),
        lambda rows, eta: _lsb_values(eta, N, k),
        lambda rows, eta: _support_values(eta, N, k),
        lambda rows, eta: _support_sizes(eta),
        lambda rows, eta: _outcomes(eta, N, k, d, plan, u[rows], cdf),
        lambda rows, eta: _trivial_outcomes(_support_sizes(eta), N, k,
                                            u[rows]),
    ]
    for reduce in reducers:
        fused = count_eta_batch(xs, N, reduce)
        whole = reduce(slice(0, S), table)
        assert fused.dtype == whole.dtype and fused.shape == whole.shape
        assert np.array_equal(fused, whole)
        # S = 0 still makes one call, on no rows, which gives the
        # reducer's shape and dtype
        calls = []

        def counted(rows, eta):
            calls.append(eta.shape)
            return reduce(rows, eta)

        empty = count_eta_batch(xs[:0], N, counted)
        assert calls == [(0, N)]
        none = reduce(slice(0, 0), table[:0])
        assert empty.dtype == none.dtype and empty.shape == none.shape


@pytest.mark.parametrize("tables", KERNEL_TABLES)
@settings(parent=core, max_examples=30,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(st.sampled_from(ROW_COUNTS), st.data())
def test_support_mode_sizes_match_the_int64_table(tables, rows, data):
    # in the support mode every reducer block is a bool table of which
    # counts are nonzero, at every k whose counts take the int16, uint16,
    # int32 or int64 tables, including the labels whose counts uint16
    # tables would wrap to 0; the blocks must be the support of the exact
    # int64 table, and their support sizes its count_nonzero, with the
    # chunks and blocks cut at other rows by the byte budgets 2^9 and 2^13
    size = data.draw(_kernel_sizes(tables))
    for chunk_bytes in (2 ** 9, 2 ** 13, CHUNK_BYTES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subsetsum, "CHUNK_BYTES", chunk_bytes)
            N, k, pool, which, xs = _kernel_rows(size, rows, data,
                                                 support=True)
            table = np.array([_dp_rows(BlockLabel(tuple(x), N))[-1]
                              for x in pool.tolist()], dtype=np.int64)[which]
            got = count_eta_batch(xs, N, lambda r, chunk: chunk,
                                  support=True)
            assert got.dtype == np.bool_
            assert np.array_equal(got, table != 0)
            assert np.array_equal(_support_sizes(got),
                                  np.count_nonzero(table, axis=1))


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

"""Counting, enumeration, uniform sampling, and the unitary completion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dihedral_pgm import (BlockLabel, SubsetSumInstance, bit_dot_table,
                          count_eta, count_eta_batch, enumerate_subsets,
                          format_solution, neumark_complete, parse_instance,
                          qsample, sample_solutions,
                          superposition_vector, vtilde)
from dihedral_pgm.subsetsum import (BATCH_K_LIMIT, _batch_dtype, _bit_table,
                                    _dp_rows, _prefix_width, _subset_sums)


def brute_counts(label):
    """Independent oracle: count subset sums by explicit enumeration."""
    counts = [0] * label.N
    for b in range(2 ** label.k):
        total = sum(x for j, x in enumerate(label.x) if (b >> j) & 1)
        counts[total % label.N] += 1
    return counts


def test_count_eta_examples():
    assert count_eta(BlockLabel((1, 2), 4)).eta == (1, 1, 1, 1)
    assert count_eta(BlockLabel((0, 0), 2)).eta == (4, 0)
    assert count_eta(BlockLabel((1,), 2)).eta == (1, 1)


def test_count_eta_against_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(200):
        N = int(rng.integers(2, 9))
        k = int(rng.integers(1, 11))
        label = BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        profile = count_eta(label)
        assert list(profile.eta) == brute_counts(label)
        assert sum(profile.eta) == 2 ** k
        assert profile.eta[0] >= 1
        for r in range(N):
            assert profile.eta[r] == len(enumerate_subsets(label, r))


def test_count_eta_batch_matches_scalar():
    rng = np.random.default_rng(12)
    N, k = 7, 9
    xs = rng.integers(0, N, size=(64, k))
    batch = count_eta_batch(xs, N)
    for row, eta in zip(xs, batch):
        assert tuple(eta) == count_eta(BlockLabel(tuple(row), N)).eta


def test_count_eta_big_k_exact_integers():
    label = BlockLabel((0,) * 70, 2)
    assert count_eta(label).eta == (2 ** 70, 0)


def test_count_eta_batch_largest_counts_on_either_work_dtype():
    # x = 0 puts all 2^k subsets on r = 0, the largest count there is:
    # 2^14 is the last that int16 work tables hold, 2^30 the last of
    # int32 and 2^62 the last of int64
    for k in (14, 15, 30, 31, 62):
        eta = count_eta_batch(np.zeros((2, k), dtype=np.int64), 3)
        assert eta.tolist() == [[2 ** k, 0, 0]] * 2
    # on uint16 tables (N = 16 from k = 15, N = 4096 up to k = 24) 2^15
    # is the last count they hold; 2^16 and 2^24 are 0 mod 2^16, so the
    # row fails its certificate and is counted again, between rows that
    # pass it
    for N, k in ((16, 15), (16, 16), (4096, 24)):
        assert _batch_dtype(N, k) == np.uint16
        xs = np.zeros((3, k), dtype=np.int64)
        xs[::2] = np.arange(1, k + 1) % N
        eta = count_eta_batch(xs, N)
        assert eta[1].tolist() == [2 ** k] + [0] * (N - 1)
        for row, counts in zip(xs[::2].tolist(), eta[::2].tolist()):
            assert tuple(counts) == count_eta(BlockLabel(tuple(row), N)).eta


def test_count_eta_batch_prefix_sums_wrap_mod_n():
    # at N >= 128 each chunk starts from the subset sums of its first
    # coordinates; with every x_j = N - 1 almost all of them wrap past N
    for N in (128, 1024, 2048):
        m = _prefix_width(N)
        assert m >= 1
        for k in (m, m + 1):
            xs = np.full((3, k), N - 1, dtype=np.int64)
            xs[1] = np.arange(N - k, N)
            xs[2] = np.arange(k) * (N // k) + 1
            eta = count_eta_batch(xs, N)
            sums = _subset_sums(xs, N, _bit_table(k))
            for row, counts, row_sums in zip(xs.tolist(), eta.tolist(), sums):
                label = BlockLabel(tuple(row), N)
                assert counts == brute_counts(label)
                assert np.array_equal(row_sums, bit_dot_table(label))


def _python_subset_sums(row, N):
    return [sum(v for j, v in enumerate(row) if b >> j & 1) % N
            for b in range(2 ** len(row))]


def test_subset_sums_on_both_sides_of_the_float_bound():
    # one float64 product while (m + 1) N <= 2^53, doubling beyond: at
    # each m the largest N of the product and the smallest of the
    # doubling, with a row of all N - 1, whose sums m (N - 1) are the
    # largest there are
    rng = np.random.default_rng(4)
    for m in (1, 2, 3, 5):
        edge = 2 ** 53 // (m + 1)
        for N in (edge, edge + 1):
            xs = rng.integers(N - 2 ** 20, N, size=(4, m))
            xs[0] = N - 1
            sums = _subset_sums(xs, N, _bit_table(m))
            for row, row_sums in zip(xs.tolist(), sums):
                assert row_sums.tolist() == _python_subset_sums(row, N)


def test_subset_sums_by_product_and_by_doubling():
    # far past the float64 bound the doubling still gives exact sums: at
    # N = 2^62 - 1 a float64 holds neither the entries nor their sums;
    # one coordinate keeps (m + 1) N below 2^63, where an int64 product
    # would still be exact, and two or three pass it
    N = 2 ** 62 - 1
    rng = np.random.default_rng(5)
    for m in (1, 2, 3):
        xs = rng.integers(N - 2 ** 20, N, size=(4, m))
        xs[0] = N - 1
        sums = _subset_sums(xs, N, _bit_table(m))
        for row, row_sums in zip(xs.tolist(), sums):
            assert row_sums.tolist() == _python_subset_sums(row, N)


def test_enumerate_examples():
    assert enumerate_subsets(BlockLabel((1, 2), 4), 3).tolist() == [3]
    assert enumerate_subsets(BlockLabel((0, 0), 2), 1).tolist() == []
    assert enumerate_subsets(BlockLabel((1, 1), 2), 0).tolist() == [0, 3]


def test_superposition_examples():
    v = superposition_vector(BlockLabel((1, 2), 4), 2)
    expected = np.zeros(4)
    expected[2] = 1  # only subset {x_2}, little-endian integer 2
    assert np.allclose(v, expected, atol=1e-15)
    v = superposition_vector(BlockLabel((1, 1), 2), 0)
    assert np.allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)
    assert np.array_equal(superposition_vector(BlockLabel((0, 0), 2), 1),
                          np.zeros(4))


def test_sample_solution_unique():
    inst = SubsetSumInstance(BlockLabel((1, 2), 4), 3)
    rng = np.random.default_rng(0)
    assert sample_solutions(inst, 20, rng).tolist() == [3] * 20


def test_sample_solution_validity_and_balance():
    inst = SubsetSumInstance(BlockLabel((1, 1), 2), 0)
    rng = np.random.default_rng(1)
    draws = sample_solutions(inst, 10000, rng).tolist()
    assert set(draws) <= {0, 3}
    freq = draws.count(0) / len(draws)
    assert abs(freq - 0.5) <= 0.02


def test_sample_solution_illegal():
    inst = SubsetSumInstance(BlockLabel((0, 0), 2), 1)
    assert not inst.is_legal
    with pytest.raises(ValueError, match="no solution"):
        sample_solutions(inst, 5, np.random.default_rng(0))


def test_sample_solution_big_k():
    # counts exceed int64: the table holds Python integers, and so do the
    # drawn solutions, whose bit 64 no int64 could hold
    label = BlockLabel((0,) * 64 + (1,), 2)
    inst = SubsetSumInstance(label, 1)
    rng = np.random.default_rng(3)
    for b in sample_solutions(inst, 20, rng):
        assert (b >> 64) & 1 == 1
        total = sum(x for j, x in enumerate(label.x) if (b >> j) & 1)
        assert total % 2 == 1


@st.composite
def _instances(draw):
    """A label with N <= 64, k <= 10 and a target among its occupied
    residues."""
    N = draw(st.integers(1, 64))
    k = draw(st.integers(1, 10))
    x = draw(st.lists(st.integers(0, N - 1), min_size=k, max_size=k))
    label = BlockLabel(tuple(x), N)
    occupied = [r for r, c in enumerate(brute_counts(label)) if c]
    return label, draw(st.sampled_from(occupied))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_instances(), st.integers(0, 2 ** 32 - 1))
def test_dp_table_and_sampler_match_brute_force(instance, seed):
    label, t = instance
    table = _dp_rows(label)
    assert len(table) == label.k + 1
    assert all(row.shape == (label.N,) for row in table)
    assert table[-1].tolist() == brute_counts(label)
    draws = sample_solutions(SubsetSumInstance(label, t), 50,
                             np.random.default_rng(seed))
    assert draws.dtype == np.int64
    assert np.all(bit_dot_table(label)[draws] == t)


@pytest.mark.parametrize("k", [BATCH_K_LIMIT, BATCH_K_LIMIT + 1])
def test_count_eta_exact_across_the_dtype_switch(k):
    # x = (1,) * k mod 3: eta_r counts the subsets whose size is r mod 3;
    # rows 0 .. 62 are int64 and only the deeper ones Python integers
    label = BlockLabel((1,) * k, 3)
    assert [row.dtype for row in _dp_rows(label)] == (
        [np.dtype(np.int64)] * (min(k, BATCH_K_LIMIT) + 1)
        + [np.dtype(object)] * max(0, k - BATCH_K_LIMIT))
    eta = count_eta(label).eta
    assert all(type(c) is int for c in eta)
    assert list(eta) == [sum(math.comb(k, i) for i in range(r, k + 1, 3))
                         for r in range(3)]


def _python_rows(label):
    """The counting table in Python integers, row by row, by the same
    recurrence T_j[r] = T_{j-1}[r] + T_{j-1}[r - x_j]."""
    N = label.N
    rows = [[1] + [0] * (N - 1)]
    for xj in label.x:
        prev = rows[-1]
        rows.append([prev[r] + prev[(r - xj) % N] for r in range(N)])
    return rows


@pytest.mark.parametrize("k", [63, 64, 65, 66])
@pytest.mark.parametrize("N", [2, 7, 1000])
def test_dp_rows_past_int64_match_python_integers(N, k):
    x = tuple(int(v) for v in np.random.default_rng(k * N).integers(0, N, k))
    rows = _dp_rows(BlockLabel(x, N))
    assert [row.tolist() for row in rows] == _python_rows(BlockLabel(x, N))
    assert all(type(c) is int for c in rows[-1].tolist())


#: Solutions sampled past k = 62 (seed 7, four draws), recorded before the
#: int64 rows below the switch: drawing every row through _randbelow keeps
#: them.
DEEP_SAMPLES = [
    (3, (1,) * 64, 0, [6261282878208052486, 3802940952378187279,
                       7141763212923593564, 11945196036262016268]),
    (5, tuple(j % 5 for j in range(1, 67)), 2,
     [33658507882683796793, 28567052851797611575, 47780784146246035519,
      68537007102388662374]),
    (1000, tuple(int(v) for v in
                 np.random.default_rng(63).integers(0, 1000, 63)), 17,
     [3130639623396986639, 1901470227757400589, 3570879975344454075,
      5972599890158121685]),
]


@pytest.mark.parametrize("N,x,t,expect", DEEP_SAMPLES)
def test_sampled_solutions_past_int64_are_unchanged(N, x, t, expect):
    draws = sample_solutions(SubsetSumInstance(BlockLabel(x, N), t), 4,
                             np.random.default_rng(7))
    assert draws.dtype == object
    assert draws.tolist() == expect
    for b in expect:
        assert sum(xj for i, xj in enumerate(x) if b >> i & 1) % N == t


def test_batch_sampler_uniformity_chi_square():
    # x = (1,1,2,0) mod 3 has six subsets summing to 0
    label = BlockLabel((1, 1, 2, 0), 3)
    inst = SubsetSumInstance(label, 0)
    solutions = enumerate_subsets(label, 0)
    draws = sample_solutions(inst, 100000, np.random.default_rng(17))
    sums = bit_dot_table(label)
    assert np.all(sums[draws] == 0)
    observed = np.bincount(draws, minlength=2 ** label.k)[solutions]
    expected = len(draws) / len(solutions)
    chi2 = ((observed - expected) ** 2 / expected).sum()
    assert chi2 <= stats.chi2.isf(0.001, df=len(solutions) - 1)


def test_eta_concentration_for_random_draws():
    # Fraction of draws with eta_0 >= (2^k - 1)/(2N) at N=64, k=12.
    N, k, r = 64, 12, 0
    rng = np.random.default_rng(23)
    xs = rng.integers(0, N, size=(10000, k))
    eta = count_eta_batch(xs, N)
    threshold = (2 ** k - 1) / (2 * N)
    fraction = float(np.mean(eta[:, r] >= threshold))
    assert fraction >= 1 - 4 * N / (2 ** k - 1) - 0.02


def test_vtilde_examples_and_projector():
    rows = vtilde(BlockLabel((1,), 2))
    assert np.array_equal(rows, np.eye(2))
    rows = vtilde(BlockLabel((0, 0), 2))
    assert np.allclose(rows[0], np.full(4, 0.5), atol=1e-15)
    assert np.array_equal(rows[1], np.zeros(4))

    rng = np.random.default_rng(31)
    for _ in range(100):
        N = int(rng.integers(2, 9))
        k = int(rng.integers(1, 7))
        label = BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        V = vtilde(label)
        gram = V @ V.conj().T
        eta = count_eta(label).eta
        occupied = np.array([e > 0 for e in eta], dtype=float)
        # off-diagonal entries are sums over disjoint supports: exact zeros
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() == 0.0
        assert np.abs(np.diag(gram).real - occupied).max() < 1e-12
        proj = V.conj().T @ V
        assert np.abs(proj @ proj - proj).max() < 1e-12


def test_vtilde_fourier_rotation_recovers_effect_rows():
    # The unrotated matrix V = (1/sqrt N) sum_{j,q} w^(-jq) |j><S_q| has the
    # rank-one effect vectors as rows; a left N-point Fourier factor turns
    # it into vtilde.
    from dihedral_pgm import phase_table, povm_block
    rng = np.random.default_rng(37)
    for _ in range(20):
        N = int(rng.integers(2, 8))
        k = int(rng.integers(1, 6))
        label = BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        W = vtilde(label)
        table = phase_table(N)
        grid = np.outer(np.arange(N), np.arange(N))
        V = table[(-grid) % N] @ W / np.sqrt(N)
        F = table[grid % N] / np.sqrt(N)
        assert np.abs(F @ V - W).max() < 1e-12
        blk = povm_block(label)
        for j in range(N):
            effect = np.outer(V[j].conj(), V[j])
            assert np.abs(effect - blk.effect(j)).max() < 1e-12


def test_neumark_no_deficiency_example():
    U = neumark_complete(BlockLabel((1,), 2))
    expected = np.eye(4)  # vtilde is the 2x2 identity; completion appends I_2
    assert np.abs(U - expected).max() < 1e-15


def test_neumark_unitarity_and_round_trips():
    rng = np.random.default_rng(41)
    for _ in range(50):
        N = int(rng.integers(2, 9))
        k = int(rng.integers(1, 7))
        label = BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        U = neumark_complete(label)
        dim = N + 2 ** k
        assert np.abs(U.conj().T @ U - np.eye(dim)).max() < 1e-12
        assert np.array_equal(U[:N, :2 ** k], vtilde(label))
        eta = count_eta(label).eta
        for p in range(N):
            if eta[p] == 0:
                continue
            padded = np.zeros(dim, dtype=complex)
            padded[:2 ** k] = superposition_vector(label, p)
            target = np.zeros(dim, dtype=complex)
            target[p] = 1.0
            assert np.abs(U @ padded - target).max() < 1e-12
            assert np.abs(U.conj().T @ target - padded).max() < 1e-12


def test_qsample_examples():
    out = qsample(BlockLabel((1, 2), 4), 3)
    assert np.flatnonzero(np.abs(out) > 1e-14).tolist() == [3]
    out = qsample(BlockLabel((1, 1), 2), 0)
    expected = np.zeros(6, dtype=complex)
    expected[[0, 3]] = 1 / np.sqrt(2)
    assert np.abs(out - expected).max() < 1e-14


def test_qsample_support_property():
    rng = np.random.default_rng(47)
    for _ in range(20):
        N = int(rng.integers(2, 7))
        k = int(rng.integers(1, 6))
        label = BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        sums = bit_dot_table(label)
        eta = count_eta(label).eta
        for p in range(N):
            out = qsample(label, p)
            support = np.flatnonzero(np.abs(out) > 1e-14)
            if eta[p] > 0:
                assert np.all(support < 2 ** k)
                assert np.all(sums[support] == p)
            else:
                # deterministic completion state: basis vector 2^k + p
                assert support.tolist() == [2 ** k + p]


def test_enumeration_and_completion_guards():
    from dihedral_pgm import ScaleLimitError
    big = BlockLabel((1,) * 25, 4)
    with pytest.raises(ScaleLimitError):
        enumerate_subsets(big, 0)
    with pytest.raises(ScaleLimitError):
        neumark_complete(BlockLabel((1,) * 12, 64))  # 64 + 2^12 > 4096


def test_instance_text_round_trip():
    inst = parse_instance("4 2 3 1 2")
    assert inst.label == BlockLabel((1, 2), 4) and inst.t == 3
    assert format_solution(3, 2) == "11"
    assert format_solution(1, 3) == "100"  # b_1 printed first
    for bad in ("4 2", "4 2 3 1", "4 2 3 1 9", "a 2 3 1 2", "4 0 3"):
        with pytest.raises(ValueError):
            parse_instance(bad)

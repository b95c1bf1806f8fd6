"""The S_k x Z_N^* x coordinate-negation quotient behind the exact passes.

* Every exact pass against the S_k walk oracle (sk_oracle): the orbit
  weights, the Gram rank and the parity counting sums bitwise, and the
  success and parity means within a few ulp, as a hypothesis property
  over N^k <= 2^16 and at the dtype and guard edges.
* Negating one coordinate x_i shifts eta cyclically by x_i, which keeps
  every statistic the quotient walks (success, support size, parity).
* The quotient walk's rows (one multiset of classes {c, -c} per orbit of
  S_k x Z_N^* x coordinate negations) against an itertools reference,
  and their weights against orbits enumerated label by label; every
  depth of one walk, from either set of roots, against the walk to that
  depth.
* Two closed-form sums that involve no sqrt, bitwise through the
  quotient: sum_x sum_r eta_r^2 = 2^k N^k + (4^k - 2^k) N^(k-1) and, for
  even N, sum_x sum_r eta_r eta_(r+N/2) = (4^k - 2^k) N^(k-1).
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_pgm import BlockLabel, count_eta, success
from dihedral_pgm.subsetsum import _orbit_walk, _unit_roots, count_eta_batch
from dihedral_pgm.success import _lsb_values, _success_values, _support_sizes
from sk_oracle import check_against_sk, threshold_envelope

#: N at which the exact passes are compared: primes, prime powers and N
#: with several prime factors.
PRIMES = (2, 3, 5, 7, 11, 13, 31, 251)
PRIME_POWERS = (4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 128, 243, 256)
COMPOSITES = (6, 10, 12, 18, 24, 30, 36, 60, 90, 120, 210)

ORACLE_LOG2 = 16


def _sizes(log2: int = ORACLE_LOG2):
    """(N, k) with N^k <= 2^log2."""
    Ns = st.one_of(st.sampled_from(PRIMES + PRIME_POWERS + COMPOSITES),
                   st.integers(2, 256))
    return Ns.flatmap(lambda N: st.tuples(
        st.just(N), st.integers(1, max(1, int(log2 / math.log2(N) + 1e-9)))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_sizes())
def test_exact_passes_match_the_sk_walk(size):
    check_against_sk(*size)


# (4, 13) and (2, 26) are the int16 and int32 work tables at the
# enumeration guard, where the integer sums are largest; (1, 26) has one
# residue, so every x is its own orbit class
@pytest.mark.parametrize("N,k", [(4, 13), (2, 26), (1, 26), (12, 4),
                                 (30, 3), (60, 2), (256, 2)])
def test_exact_passes_match_the_sk_walk_at_the_edges(N, k):
    check_against_sk(N, k)


# ---------------------------------------------------------------------------
# coordinate negations
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 256).flatmap(lambda N: st.tuples(
    st.just(N), st.lists(st.integers(0, N - 1), min_size=1, max_size=12))),
    st.data())
def test_negating_a_coordinate_shifts_eta_and_keeps_its_statistics(case,
                                                                   data):
    # complementing bit i maps the solutions of b . x = r onto those of
    # b . x' = r - x_i, so eta^x' is eta^x rolled by -x_i, bitwise; the
    # success and parity values are then equal as real numbers, and the
    # kernels, which sum the same terms in rotated order, agree to
    # rounding (up to 11 ulp seen at N <= 256)
    N, x = case
    i = data.draw(st.integers(0, len(x) - 1))
    negated = list(x)
    negated[i] = -x[i] % N
    eta = count_eta_batch(np.array([x, negated]), N)
    assert eta[1].tolist() == np.roll(eta[0], -x[i]).tolist()
    sizes = _support_sizes(eta)
    assert sizes[0] == sizes[1]
    kernels = [_success_values] + ([_lsb_values] if N % 2 == 0 else [])
    for values in kernels:
        v = values(eta, N, len(x))
        assert v[1] == pytest.approx(v[0], rel=64 * np.finfo(float).eps,
                                     abs=0)


# ---------------------------------------------------------------------------
# the quotient walk's rows, weights and closed-form sums
# ---------------------------------------------------------------------------

def _quotient_reference(N, k):
    """(x, weight, distinct) of the S_k x Z_N^* x coordinate-negation
    quotient in walk order, from itertools.  The alphabet is the least
    elements c = 0 .. N // 2 of the classes {c, -c}, a use of c standing
    for |{c, -c}| labels.  For each divisor g of N, ascending, the multisets
    (g mod N) + rest with rest nondecreasing in the order g mod N, then
    the other digits with gcd(., N) >= g ascending; weight k! / prod m_v!
    times the labels of its elements' uses times the number of digits
    with gcd(., N) = g, and distinct the number of distinct such
    elements."""
    gcd = [math.gcd(x, N) for x in range(N)]
    alphabet = range(N // 2 + 1)
    uses = [2 if 2 * x % N else 1 for x in range(N)]
    for g in (g for g in range(1, N + 1) if N % g == 0):
        classes = sum(1 for x in alphabet if gcd[x] == g)
        order = [g % N] + [x for x in alphabet if gcd[x] >= g and x != g % N]
        for rest in combinations_with_replacement(order, k - 1):
            x = (g % N,) + rest
            orbit = math.factorial(k) * math.prod(uses[v] for v in x)
            for m in Counter(x).values():
                orbit //= math.factorial(m)
            yield x, orbit * classes, len({v for v in x if gcd[v] == g})


def _canonical(x, N):
    """The least sorted u x over the units u of Z_N, each element taken
    as min(v, -v): one label per orbit of Z_N^k under coordinate
    permutations, the units and coordinate negations."""
    units = [u for u in range(1, N + 1) if math.gcd(u, N) == 1]
    return min(tuple(sorted(min(u * v % N, -u * v % N) for v in x))
               for u in units)


def _check_quotient_rows(N, k):
    # row by row: the walk's weights, distinct counts and counts are the
    # reference's; orbit by orbit: the rows of an orbit stand for, in sum
    # of weight / distinct, exactly as many labels as it holds; depth by
    # depth of one walk to k: the rows stand for N^j labels
    blocks = [(w, d, eta.copy())
              for _, w, d, eta in _orbit_walk(N, k, _unit_roots(N, k))]
    rows = list(_quotient_reference(N, k))
    assert np.concatenate([w for w, _, _ in blocks]).tolist() == \
        [w for _, w, _ in rows]
    assert np.concatenate([d for _, d, _ in blocks]).tolist() == \
        [d for _, _, d in rows]
    assert np.concatenate([eta for _, _, eta in blocks]).tolist() == \
        [list(count_eta(BlockLabel(x, N)).eta) for x, _, _ in rows]
    covered = Counter()
    for x, w, d in rows:
        covered[_canonical(x, N)] += Fraction(w, d)
    assert covered == Counter(_canonical(x, N)
                              for x in product(range(N), repeat=k))
    labels = Counter()
    for j, w, d, _ in _orbit_walk(N, k, _unit_roots(N, k), 1):
        labels[j] += sum(map(Fraction, w.tolist(), d.tolist()))
    assert labels == {j: N ** j for j in range(1, k + 1)}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_sizes(log2=12))
def test_signed_quotient_rows_match_the_reference_and_cover_each_orbit(size):
    _check_quotient_rows(*size)


# odd N, N = 1 and 2 (no two-element class), and N whose class N/2 has
# one element (6, 12, 64)
@pytest.mark.parametrize("N,k", [(1, 6), (2, 8), (5, 4), (27, 2), (6, 4),
                                 (12, 3), (64, 2)])
def test_signed_quotient_rows_at_the_edges(N, k):
    _check_quotient_rows(N, k)


def _rows_by_depth(blocks):
    """{depth: (weights, distinct, eta)} concatenated over a tagged walk's
    blocks, the counts widened to int64."""
    out = {}
    for j, w, d, eta in blocks:
        held = out.setdefault(j, ([], [], []))
        for column, part in zip(held, (w, d, eta.astype(np.int64))):
            column.append(part)
    return {j: tuple(np.concatenate(c).tolist() for c in held)
            for j, held in out.items()}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_sizes(log2=12), st.data())
def test_a_deep_walk_yields_each_depth_as_its_own_walk(size, data):
    # from the quotient's roots and from the S_k root: every depth j of
    # one walk to k holds the rows of the walk to j, in its order
    N, k = size
    lo = data.draw(st.integers(1, k))
    for roots in (_unit_roots, lambda N, k: None):
        deep = _rows_by_depth(_orbit_walk(N, k, roots(N, k), lo))
        assert sorted(deep) == list(range(lo, k + 1))
        for j in range(lo, k + 1):
            own = _rows_by_depth(_orbit_walk(N, j, roots(N, j)))
            assert deep[j] == own[j]


def _quotient_sum(N, k, stat):
    """sum over x in Z_N^k of the int64 per-row stat(eta), through the
    quotient walk, in Python integers: w * stat overflows int64 at
    (2, 26)."""
    by_distinct = Counter()
    for _, w, distinct, eta in _orbit_walk(N, k, success._exact_roots(N, k)):
        for a, d, v in zip(w.tolist(), distinct.tolist(),
                           stat(eta.astype(np.int64)).tolist()):
            by_distinct[d] += a * v
    total = sum(Fraction(s, d) for d, s in by_distinct.items())
    assert total.denominator == 1
    return int(total)


def _collisions(eta):
    """c(x) = sum_r eta_r^2."""
    return (eta * eta).sum(axis=1)


def _half_collisions(eta):
    """d(x) = sum_r eta_r eta_(r + N/2)."""
    return (eta * np.roll(eta, -(eta.shape[1] // 2), axis=1)).sum(axis=1)


def _check_collision_sums(N, k):
    # pairs (b, b') with (b - b') . x = 0: b = b' for every x, and each
    # b != b' has an entry +-1, so (b - b') . x is uniform on Z_N
    pairs = (4 ** k - 2 ** k) * N ** (k - 1)
    assert _quotient_sum(N, k, _collisions) == 2 ** k * N ** k + pairs
    if N % 2 == 0:
        assert _quotient_sum(N, k, _half_collisions) == pairs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_sizes())
def test_collision_sums_hold_through_the_quotient(size):
    _check_collision_sums(*size)


@pytest.mark.parametrize("N,k", [(4, 13), (2, 26), (1, 26)])
def test_collision_sums_hold_at_the_edges(N, k):
    _check_collision_sums(N, k)


@pytest.mark.parametrize("N, k", [(2, 62), (16, 15)])
def test_walk_weights_sum_to_every_depth_past_the_guard(N, k, monkeypatch):
    # with the enumeration guard lifted, each depth j of the walk from
    # the exact passes' roots stands for N^j labels, summed as Python
    # Fractions of weights over distinct counts, and the S_k walk's
    # weights sum to N^j as Python ints where it is small enough to walk;
    # a child's int64 weight taken as (parent * length) // run wrapped at
    # (2, 62), where the exact p came out negative
    monkeypatch.setattr(success, "EXACT_ENUM_LIMIT", N ** k)
    totals = Counter()
    for depth, w, distinct, _ in _orbit_walk(
            N, k, success._exact_roots(N, k), 1):
        totals[depth] += sum(Fraction(a, b) for a, b in
                             zip(w.tolist(), distinct.tolist()))
    assert totals == {j: N ** j for j in range(1, k + 1)}
    if math.comb(N + k - 1, k) <= 10 ** 5:
        sums = Counter()
        for depth, w, _, _ in _orbit_walk(N, k, None, 1):
            sums[depth] += sum(w.tolist())
        assert sums == {j: N ** j for j in range(1, k + 1)}
    # and the exact p lies in the paper's envelope, within an ulp of 1
    lo, hi = threshold_envelope(N, k)
    p = success.success_exact(N, k).p
    assert lo - Fraction(math.ulp(1.0)) <= Fraction(p) <= hi

"""Exact statistics summed over the S_k orbit walk: the oracle every exact
pass is checked against.

sk_sums weights each row of subsetsum's S_k walk (one nondecreasing x per
orbit of Z_N^k under coordinate permutations) by its int64 orbit size and
sums per-row statistics over all of Z_N^k: integer columns exactly, in
Python integers, and float columns by one fsum of the weighted values.
check_against_sk compares the program's exact passes with it at one size;
the tests run it at oracle sizes, and CI at sizes tier-1 skips for time.
counting_sums gives the parity counting sums from the same walk, the
enumeration their closed forms are held to.
decimal_means gives the success and parity means themselves in 50-digit
decimal, the reference the printed exact rows are held to, and
threshold_envelope the paper's bounds on the success probability:

    PYTHONPATH=src:tests python3 -c \
        "from sk_oracle import check_against_sk; check_against_sk(64, 4)"
"""

import math
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from dihedral_pgm import (gram_operator, lsb_counting_sums,
                          lsb_success_exact, success_exact, trivial_success)
from dihedral_pgm.subsetsum import _orbit_walk
from dihedral_pgm.success import (_exact_sums, _lsb_values, _success_values,
                                  _support_sizes)

#: Float means may differ from the oracle's fsum by this many ulp: they
#: are summed in another order, SHARD values at a time.
MEAN_ULPS = 4


def sk_sums(N: int, k: int, stats: dict) -> dict:
    """{name: [sum over x in Z_N^k of column c of stat(eta^x)]} for each
    stat of stats, which maps (rows, N) counts to (rows,) or (rows, m)
    per-row values, from one pass over the S_k walk."""
    ints = {name: None for name in stats}
    floats = {name: [] for name in stats}
    for _, w, _, eta in _orbit_walk(N, k):
        for name, stat in stats.items():
            v = np.asarray(stat(eta)).reshape(w.shape[0], -1)
            if v.dtype.kind == "f":
                floats[name].append(w[:, None] * v)
                continue
            # object arithmetic: w * v overflows int64 at (2, 26)
            part = (w.astype(object)[:, None] * v.astype(object)).sum(axis=0)
            ints[name] = part if ints[name] is None else ints[name] + part
    out = {}
    for name in stats:
        if ints[name] is not None:
            out[name] = [int(s) for s in ints[name]]
        else:
            columns = np.concatenate(floats[name])
            out[name] = [math.fsum(columns[:, c])
                         for c in range(columns.shape[1])]
    return out


def _counting_terms(eta: np.ndarray, N: int) -> np.ndarray:
    """Per-draw (eta_0, eta_(N/2), sum_(r != 0, N/2) eta_r eta_(-r)) as an
    (S, 3) int64 table, N even; the counts are widened before the
    products, which overflow the int16 work tables from k = 8 on.  The
    residues 0 and N/2 are their own negatives, so the cross sum is the
    sum over every r less eta_0^2 and eta_(N/2)^2."""
    eta = eta.astype(np.int64)
    half = N // 2
    cross = ((eta * eta[:, -np.arange(N) % N]).sum(axis=1)
             - eta[:, 0] ** 2 - eta[:, half] ** 2)
    return np.column_stack((eta[:, 0], eta[:, half], cross))


def counting_sums(N: int, k: int) -> tuple:
    """(sum_x eta_0, sum_x eta_(N/2), sum_x sum_(r != 0, N/2) eta_r eta_(-r))
    over Z_N^k, N even, summed over the S_k walk in Python integers."""
    terms = {"counting": lambda eta: _counting_terms(eta, N)}
    return tuple(sk_sums(N, k, terms)["counting"])


def decimal_means(N: int, k: int, digits: int = 50) -> tuple:
    """(success, parity) means over Z_N^k as Decimals of `digits` digits,
    parity None for odd N, from the S_k walk with no float step.  Both
    are sums of square roots of integers: sum_x (sum_r sqrt(eta_r))^2 is
    sum_(v, v') A_(v v') sqrt(v v'), A the orbit-weighted sum of the outer
    products of each row's histogram of count values, and
    sum_x sum_r sqrt(eta_r eta_(r+N/2)) groups by the product.  The
    integer coefficients are exact in int64 (at most N^(k+2)), and each
    root is rounded once, to `digits` digits."""
    pairs, halves = Counter(), Counter()
    for _, w, _, eta in _orbit_walk(N, k):
        eta = eta.astype(np.int64)
        rows = np.arange(eta.shape[0])[:, None]
        values, at = np.unique(eta, return_inverse=True)
        hist = np.zeros((eta.shape[0], values.size), dtype=np.int64)
        np.add.at(hist, (rows, at.reshape(eta.shape)), 1)
        coeff = hist.T @ (w[:, None] * hist)
        for i, j in zip(*np.nonzero(coeff)):
            pairs[int(values[i]) * int(values[j])] += int(coeff[i, j])
        if N % 2 == 0:
            prods = eta * np.roll(eta, -(N // 2), axis=1)
            values, at = np.unique(prods, return_inverse=True)
            weight = np.zeros(values.size, dtype=np.int64)
            np.add.at(weight, at.reshape(eta.shape), w[:, None])
            for v, c in zip(values.tolist(), weight.tolist()):
                halves[v] += c
    with localcontext() as ctx:
        ctx.prec = digits
        success = (sum(c * Decimal(v).sqrt() for v, c in pairs.items())
                   / (2 ** k * N ** (k + 1)))
        parity = (Decimal(1) / 2
                  + sum(c * Decimal(v).sqrt() for v, c in halves.items())
                  / (2 ** (k + 1) * N ** k)) if N % 2 == 0 else None
    return success, parity


def threshold_envelope(N: int, k: int) -> tuple:
    """The paper's envelope of the exact N-outcome success probability,
    2^k / (N + 2^k - 1) <= p <= min(1, 2^k / N), as two Fractions."""
    return (Fraction(2 ** k, N + 2 ** k - 1),
            min(Fraction(1), Fraction(2 ** k, N)))


def _close(value: float, exact: float) -> bool:
    return abs(value - exact) <= MEAN_ULPS * math.ulp(exact)


def check_against_sk(N: int, k: int) -> None:
    """Assert that the exact passes at (N, k) agree with the S_k walk:
    the orbit weights of both walks sum to N^k, the Gram rank and the
    parity counting sums are bitwise equal, the trivial success is the
    oracle's rank as an exact rational rounded once, and the success and
    parity means lie within MEAN_ULPS of the oracle's."""
    def ones(eta):
        return np.ones(eta.shape[0], dtype=np.int64)

    stats = {"count": ones, "rank": _support_sizes}
    if N >= 2:
        stats["success"] = lambda eta: _success_values(eta, N, k)
    if N % 2 == 0:
        stats["lsb"] = lambda eta: _lsb_values(eta, N, k)
        stats["counting"] = lambda eta: _counting_terms(eta, N)
    ref = sk_sums(N, k, stats)
    assert ref["count"] == [N ** k], (N, k, ref["count"])
    assert _exact_sums(N, k, ones) == N ** k, (N, k)
    assert gram_operator(N, k).rank() == ref["rank"][0], (N, k)
    if N >= 2:
        p = success_exact(N, k).p
        assert _close(p, ref["success"][0] / N ** k), (N, k, p)
        assert trivial_success(N, k) == float(
            1 - Fraction(ref["rank"][0], (2 * N) ** k)), (N, k)
    if N % 2 == 0:
        assert list(lsb_counting_sums(N, k)) == ref["counting"], (N, k)
        p = lsb_success_exact(N, k)
        assert _close(p, ref["lsb"][0] / N ** k), (N, k, p)

"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all;
a FAIL raises, so a green run means every line passed).
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import dihedral_pgm as dp
from sk_oracle import counting_sums

TOL_CERT = 1e-9
TOL_MATCH = 1e-10
TOL_UNITARY = 1e-12

CERT_SIZES = [(N, k)
              for N in (2, 3, 4, 5, 6, 8)
              for k in range(1, 13)
              if (2 * N) ** k <= 4096]


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_optimality_certification():
    start = time.perf_counter()
    worst_res = 0.0
    worst_dom = math.inf
    for N, k in CERT_SIZES:
        rep = dp.certify_dihedral_pgm(N, k)
        worst_res = max(worst_res, rep.hermiticity_residual)
        worst_dom = min(worst_dom, rep.dominance_min_eigenvalue)
        assert rep.passed, (N, k)
    elapsed = time.perf_counter() - start
    ok = worst_res <= TOL_CERT and worst_dom >= -TOL_CERT and elapsed < 60
    _report("criterion 1: optimality certification at every oracle scale", ok,
            f"residual<={worst_res:.1e}, min-eig>={worst_dom:.1e}, {elapsed:.1f}s")


def test_criterion_02_closed_form_equals_generic_pgm():
    worst = 0.0
    for N, k in CERT_SIZES:
        # per block (the construction is block diagonal, so this covers
        # the full space); plus a global dense comparison where it fits
        for X in range(N ** k):
            label = dp.BlockLabel.from_flat(X, N, k)
            states = []
            for d in range(N):
                psi = dp.block_state(label, d).amplitudes
                states.append(np.outer(psi, psi.conj()))
            built = dp.pgm_dense(states, [1 / N] * N)
            blk = dp.povm_block(label)
            for j in range(N):
                worst = max(worst, float(np.abs(built[j] - blk.effect(j)).max()))
        if (2 * N) ** k <= 256:
            dense_states = [dp.assemble_block_density(d, k, N)
                            for d in range(N)]
            built = dp.pgm_dense(dense_states, [1 / N] * N)
            closed = dp.dense_block_effects(N, k)
            for a, b in zip(built, closed):
                worst = max(worst, float(np.abs(a - b).max()))
    _report("criterion 2: generic square-root builder matches closed form",
            worst <= TOL_MATCH, f"max entry diff {worst:.1e}")


def test_criterion_03_exact_success_probability():
    ok = dp.success_exact(2, 1).p == 0.75
    detail = f"p(2,1)={dp.success_exact(2, 1).p!r}"
    for N in range(2, 33):
        p = dp.success_exact(N, 1).p
        ok &= abs(p - (2 * N - 1) / N ** 2) < 1e-12
    # dense trace oracle at oracle scale
    for N, k in [(2, 1), (2, 2), (3, 1), (4, 1)]:
        effects = dp.dense_block_effects(N, k)
        p = dp.success_exact(N, k).p
        for d in range(N):
            rho = dp.assemble_block_density(d, k, N)
            ok &= abs(np.trace(effects[d] @ rho).real - p) < TOL_MATCH
    _report("criterion 3: exact success probability and closed form", ok,
            detail)


def test_criterion_04_threshold_upper_branch():
    start = time.perf_counter()
    point = dp.success_mc(64, 10, 10000, seed=7)
    elapsed = time.perf_counter() - start
    ok = point.p >= 1 / 8 - 4 * point.stderr and elapsed < 30
    _report("criterion 4: success at density above threshold", ok,
            f"p={point.p:.4f}+-{point.stderr:.4f}, {elapsed:.1f}s")


def test_criterion_05_threshold_lower_branch():
    start = time.perf_counter()
    points = [dp.success_mc(N, k, 10000, seed=7)
              for N, k in [(256, 4), (1024, 5), (4096, 6)]]
    elapsed = time.perf_counter() - start
    ok = elapsed < 60
    for point in points:
        ok &= point.p <= 2 ** point.k / point.N + 4 * point.stderr
    ratios = [points[i].p / points[i + 1].p for i in range(2)]
    ok &= all(r >= 1.5 for r in ratios)
    _report("criterion 5: below-threshold estimates under the ceiling and "
            "decaying geometrically", ok,
            f"p={[f'{q.p:.5f}' for q in points]}, ratios={[f'{r:.2f}' for r in ratios]}, "
            f"{elapsed:.1f}s")


def test_criterion_06_trivial_subgroup():
    exact = dp.trivial_success(8, 7)
    rate, _ = dp.run_trials(8, 7, dp.TRIVIAL, 10000, seed=5)
    stderr = math.sqrt(exact * (1 - exact) / 10000)
    ok = exact >= 15 / 16 and abs(rate - exact) <= 4 * stderr
    _report("criterion 6: trivial-subgroup identification", ok,
            f"exact={exact:.5f}, simulated={rate:.5f}")


def test_criterion_07_counting_identities():
    # the sums enumerated over the S_k walk hit the closed forms, and
    # lsb_counting_sums returns them
    ok = True
    for N in (4, 6, 8):
        for k in range(1, 7):
            counts = counting_sums(N, k)
            sum0, sum_half, cross = counts
            ok &= sum0 == N ** (k - 1) * (2 ** k - 1) + N ** k
            ok &= sum_half == N ** (k - 1) * (2 ** k - 1)
            ok &= cross == (N - 2) * (2 ** k - 1) * (2 ** k - 2) * N ** (k - 2)
            ok &= dp.lsb_counting_sums(N, k) == counts
    _report("criterion 7: exact integer counting identities", ok,
            "N in {4,6,8}, k <= 6, enumerated")


def test_criterion_08_lsb_bound_and_dense_oracle():
    ok = True
    details = []
    for N, k in [(256, 4), (1024, 5)]:
        point, bound = dp.lsb_threshold_check(N, k, 10000, seed=11)
        ok &= point.p <= bound + 4 * point.stderr
        details.append(f"({N},{k}): {point.p:.4f} <= {bound:.4f}")
    for N, k in [(2, 1), (2, 2), (4, 1), (4, 2), (6, 1), (8, 1)]:
        rho_plus = sum(dp.assemble_block_density(d, k, N)
                       for d in range(0, N, 2)) * (2 / N)
        E_plus = sum(dp.dense_block_effects(N, k)[0::2])
        dense = np.trace(E_plus @ rho_plus).real
        ok &= abs(dp.lsb_success_exact(N, k) - dense) < TOL_MATCH
    _report("criterion 8: parity-bit ceiling and dense-trace agreement", ok,
            "; ".join(details))


def test_criterion_09_chi_and_spectrum():
    ok = True
    for N in range(2, 65):
        ok &= abs(dp.chi_single_copy(N) - (1 - 1 / N)) < 1e-9
    for N in (2, 8, 32, 64):
        states = [dp.hidden_subgroup_state(dp.subgroup_elements("order2", N, d=d))
                  for d in range(N)]
        lam = np.sort(np.linalg.eigvalsh(sum(states) / N))
        ok &= abs(lam[0]) < 1e-9
        ok &= np.abs(lam[1:-1] - 1 / (2 * N)).max() < 1e-9
        ok &= abs(lam[-1] - 1 / N) < 1e-9
    _report("criterion 9: single-copy accessible-information ceiling", ok,
            "chi = 1 - 1/N and mixture spectrum for N <= 64")


def test_criterion_10_count_concentration():
    N, k, r = 64, 12, 0
    rng = np.random.default_rng(23)
    xs = rng.integers(0, N, size=(10000, k))
    eta = dp.count_eta_batch(xs, N)
    fraction = float(np.mean(eta[:, r] >= (2 ** k - 1) / (2 * N)))
    floor = 1 - 4 * N / (2 ** k - 1) - 0.02
    _report("criterion 10: solution-count concentration for random draws",
            fraction >= floor, f"fraction={fraction:.4f} >= {floor:.4f}")


def test_criterion_11_subset_sum_round_trip():
    rng = np.random.default_rng(31)
    ok = True
    tested_chi = 0
    tested_neumark = 0
    for _ in range(50):
        N = int(rng.integers(2, 65))
        k = int(rng.integers(1, 13))
        label = dp.BlockLabel(tuple(rng.integers(0, N, size=k)), N)
        eta = dp.count_eta(label).eta
        occupied = [r for r in range(N) if eta[r] > 0]
        t = occupied[int(rng.integers(len(occupied)))]
        inst = dp.SubsetSumInstance(label, t)

        draws = dp.sample_solutions(inst, 6400, rng)
        sums = dp.bit_dot_table(label)
        ok &= bool(np.all(sums[draws] == t))

        if eta[t] <= 64:
            tested_chi += 1
            solutions = dp.enumerate_subsets(label, t)
            observed = np.bincount(draws, minlength=2 ** k)[solutions]
            expected = len(draws) / len(solutions)
            if len(solutions) > 1:
                chi2 = float(((observed - expected) ** 2 / expected).sum())
                ok &= chi2 <= stats.chi2.isf(0.001, df=len(solutions) - 1)

        if N + 2 ** k <= 4096:
            tested_neumark += 1
            U = dp.neumark_complete(label)
            dim = N + 2 ** k
            padded = np.zeros(dim, dtype=complex)
            padded[:2 ** k] = dp.superposition_vector(label, t)
            target = np.zeros(dim, dtype=complex)
            target[t] = 1.0
            ok &= float(np.abs(U @ padded - target).max()) < TOL_UNITARY
            ok &= float(np.abs(dp.qsample(label, t) - padded).max()) < TOL_UNITARY
    _report("criterion 11: sampling validity, uniformity, completion round "
            "trips", ok,
            f"chi-square on {tested_chi}, round trips on {tested_neumark} of 50")


def test_criterion_12_procedure_equivalence():
    ok = True
    for N in (2, 3, 4, 5, 8):
        for d in range(N):
            ok &= dp.equivalence_check(N, [d])
    for N in range(2, 17):
        Q = dp.qft_dihedral(N)
        ok &= float(np.abs(Q @ Q.conj().T - np.eye(2 * N)).max()) < TOL_UNITARY
    _report("criterion 12: irrep-basis procedure equivalence and transform "
            "unitarity", ok, "N in {2,3,4,5,8} all shifts; transform N <= 16")

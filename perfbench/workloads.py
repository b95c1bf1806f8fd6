"""The benchmark's workloads: which program calls make one cycle, how many
items each is worth, and how each output is checked.

Every call goes through a module attribute looked up at call time
(``cli.main``, ``success.trivial_success``, ...), so the tracer's wrappers
see it.  CLI calls run in-process through ``cli.main`` with ``--output``
set to a new file per call: rewriting an existing file on ext4 forces a
flush on close, which would time the disk rather than the program.

Checks use tolerances, never output digests, so a change that moves the
last digit of a float still passes.  A check returns the list of its
failures; an empty list is a pass.

The seed reaches the program as --seed (or seed=) of the Monte Carlo
calls; exact_enum and certify_oracles use no RNG, so their inputs are
the same for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from dihedral_pgm import cli, dihedral, pgm, success

#: Oracle sizes certified by ``verify``: every (N, k) with (2N)^k <= 4096,
#: the same set the acceptance tests certify.
CERT_SIZES = [(N, k) for N in (2, 3, 4, 5, 6, 8) for k in range(1, 13)
              if (2 * N) ** k <= 4096]

#: Dense sizes for verify_holevo; (2N)^k stays within its 256 guard.
HOLEVO_SIZES = [(N, k) for N, k in CERT_SIZES if (2 * N) ** k <= 256]


@dataclass
class Op:
    """One program call of a cycle."""

    name: str       # unique within the cycle
    root: str       # root span: "cli.<command>" or "bench.<call>"
    items: int      # units of work credited to items_per_s
    call: Callable[[], object]
    check: Callable[[object, dict], list[str]]
    output: str | None = None  # file the call writes, removed after the check


@dataclass
class CliResult:
    code: int
    stdout: str
    text: str = ""  # contents of the --output file, read by the check


def _cli_op(name, argv, out_path, items, check):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--output", out_path])
        return CliResult(code, buf.getvalue())

    def checked(res, results):
        if not os.path.exists(out_path):
            return [f"{name}: no output file (exit {res.code})"]
        with open(out_path, encoding="utf-8") as fh:
            res.text = fh.read()
        return check(res, results)

    return Op(name, "cli." + argv[0], items, call, checked, out_path)


def _csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _cycle_seed(seed, index):
    return seed * 1000 + index


def _expect_ok(name, res):
    return [] if res.code == 0 else [f"{name}: exit {res.code}"]


# ---------------------------------------------------------------------------
# mc_threshold
# ---------------------------------------------------------------------------

def mc_threshold(scale):
    # Full scale keeps the CLI's default --samples 10000: three shards of
    # SHARD = 4096 draws, the last one partial, so the shard split and
    # merge run as they do for a user.  k = 8..12 straddles the threshold
    # k = log2 N = 10; all of 4..24 would be about six times the work.
    if scale == "tiny":
        N, k_lo, k_hi, lsb_N, lsb_ks, samples = 64, 3, 5, 16, (2, 4), 128
    else:
        N, k_lo, k_hi, lsb_N, lsb_ks, samples = 1024, 8, 12, 256, (4, 12), 10000

    def check_sweep(name, res):
        fails = _expect_ok(name, res)
        rows = _csv(res.text)
        if len(rows) != k_hi - k_lo + 1:
            fails.append(f"{name}: {len(rows)} rows")
        for row in rows:
            k, p, se = int(row["k"]), float(row["p"]), float(row["stderr"])
            if row["method"] != "MC":
                fails.append(f"{name}: k={k} method {row['method']}")
            if not 0.0 <= p <= 1.0:
                fails.append(f"{name}: k={k} p={p} outside [0,1]")
            # Below the threshold k < log2 N the success probability is
            # at most 2^k / N.
            if k < math.log2(N) and p > 2 ** k / N + 5 * se:
                fails.append(f"{name}: k={k} p={p} above 2^k/N + 5 se")
        return fails

    def check_lsb(name, res):
        fails = _expect_ok(name, res)
        row = _csv(res.text)[0]
        p, se, bound = (float(row[c]) for c in ("p_lsb", "stderr", "bound"))
        if not 0.0 <= p <= 1.0:
            fails.append(f"{name}: p_lsb={p} outside [0,1]")
        if p > bound + 5 * se:
            fails.append(f"{name}: p_lsb={p} above bound {bound} + 5 se")
        return fails

    def cycle(seed, index, tmp):
        s = str(_cycle_seed(seed, index))
        name = f"sweep N={N} k={k_lo}..{k_hi}"
        ops = [_cli_op(name, ["sweep", "--N", str(N), "--k", f"{k_lo}..{k_hi}",
                              "--samples", str(samples), "--seed", s,
                              "--threads", "1"],
                       os.path.join(tmp, f"sweep-{index}.csv"),
                       samples * (k_hi - k_lo + 1),
                       lambda res, _r, n=name: check_sweep(n, res))]
        for k in lsb_ks:
            name = f"lsb N={lsb_N} k={k}"
            ops.append(_cli_op(
                name, ["lsb", "--N", str(lsb_N), "--k", str(k), "--samples",
                       str(samples), "--seed", s, "--threads", "1"],
                os.path.join(tmp, f"lsb-{k}-{index}.csv"), samples,
                lambda res, _r, n=name: check_lsb(n, res)))
        return ops

    return cycle, (N, lsb_N)


# ---------------------------------------------------------------------------
# exact_enum
# ---------------------------------------------------------------------------

def exact_enum(scale):
    if scale == "tiny":
        sweeps, big = [(8, 2), (16, 2), (64, 1)], (8, 3)
    else:
        sweeps, big = [(8, 7), (16, 5), (64, 3)], (8, 7)
    bN, bk = big

    def check_sweep(name, res, N, k_hi):
        fails = _expect_ok(name, res)
        rows = _csv(res.text)
        if len(rows) != k_hi:
            fails.append(f"{name}: {len(rows)} rows")
        for row in rows:
            k, p = int(row["k"]), float(row["p"])
            if row["method"] != "EXACT":
                fails.append(f"{name}: k={k} method {row['method']}")
            if not 0.0 <= p <= 1.0:
                fails.append(f"{name}: k={k} p={p} outside [0,1]")
            if k == 1 and abs(p - (2 * N - 1) / N ** 2) > 1e-12:
                fails.append(f"{name}: k=1 p={p} != (2N-1)/N^2")
        return fails

    def check_lsb(name, res):
        fails = _expect_ok(name, res)
        row = _csv(res.text)[0]
        p = float(row["p_lsb"])
        if row["method"] != "EXACT" or not 0.5 <= p <= 1.0:
            fails.append(f"{name}: p_lsb={p} method {row['method']}")
        return fails

    def check_trivial(value, results):
        rank = results.get("gram_operator.rank")
        if not isinstance(rank, int):
            return ["trivial_success: no Gram rank to compare with"]
        expect = 1.0 - rank / float((2 * bN) ** bk)
        if abs(value - expect) > 1e-12:
            return [f"trivial_success={value} != 1 - rank/(2N)^k = {expect}"]
        return []

    def check_rank(rank, _results):
        if not 0 < rank <= (2 * bN) ** bk:
            return [f"gram rank {rank} outside (0, (2N)^k]"]
        return []

    def check_sums(sums, _results):
        # sum_x eta_r counts pairs (x, b) with b.x = r: b = 0 contributes
        # N^k to r = 0, and every other b hits each residue N^(k-1) times.
        others = (2 ** bk - 1) * bN ** (bk - 1)
        if sums[0] != bN ** bk + others or sums[1] != others or sums[2] < 0:
            return [f"lsb_counting_sums {sums} != ({bN ** bk + others}, "
                    f"{others}, >=0)"]
        return []

    def cycle(seed, index, tmp):
        ops = []
        for N, k_hi in sweeps:
            name = f"sweep --exact N={N} k=1..{k_hi}"
            ops.append(_cli_op(
                name, ["sweep", "--exact", "--N", str(N), "--k", f"1..{k_hi}"],
                os.path.join(tmp, f"sweep-{N}-{index}.csv"),
                sum(N ** k for k in range(1, k_hi + 1)),
                lambda res, _r, n=name, N=N, kh=k_hi: check_sweep(n, res, N, kh)))
        name = f"lsb --exact N={bN} k={bk}"
        ops.append(_cli_op(
            name, ["lsb", "--exact", "--N", str(bN), "--k", str(bk)],
            os.path.join(tmp, f"lsb-{index}.csv"), bN ** bk,
            lambda res, _r, n=name: check_lsb(n, res)))
        blocks = bN ** bk
        ops += [
            Op("gram_operator.rank", "bench.gram_rank", blocks,
               lambda: pgm.gram_operator(bN, bk).rank(), check_rank),
            Op("trivial_success", "bench.trivial_success", blocks,
               lambda: success.trivial_success(bN, bk), check_trivial),
            Op("lsb_counting_sums", "bench.lsb_counting_sums", blocks,
               lambda: success.lsb_counting_sums(bN, bk), check_sums),
        ]
        return ops

    return cycle, tuple(N for N, _ in sweeps)


# ---------------------------------------------------------------------------
# simulate_trials
# ---------------------------------------------------------------------------

def simulate_trials(scale):
    # Full scale keeps the CLI's default --trials 10000: three shards of
    # 4096 trials on two workers, so the pool's imbalance shows in
    # simulate.pool_busy_frac.
    if scale == "tiny":
        N, k_d, k_triv, trials, ref_samples = 64, 6, 3, 256, 128
    else:
        N, k_d, k_triv, trials, ref_samples = 1024, 20, 10, 10000, 2048
    threads = "2"

    def check(name, res, reference):
        fails = _expect_ok(name, res)
        summary = json.loads(res.stdout)
        lines = res.text.splitlines()
        if len(lines) != trials + 1:
            fails.append(f"{name}: CSV has {len(lines)} lines, "
                         f"want {trials + 1}")
        hits = sum(line.endswith(",1") for line in lines[1:])
        rate = summary["rate"]
        if summary["trials"] != trials:
            fails.append(f"{name}: summary reports {summary['trials']} trials")
        if abs(hits / trials - rate) > 1e-12:
            fails.append(f"{name}: CSV hit rate {hits / trials} != {rate}")
        ref, ref_se = reference()
        # The binomial stderr is taken at the reference rate: at the
        # observed rate it is 0 whenever every trial succeeds, which
        # happens often when the rate is close to 1.
        sim_se = math.sqrt(ref * (1.0 - ref) / trials)
        combined = math.hypot(sim_se, ref_se)
        if abs(rate - ref) > 5 * combined:
            fails.append(f"{name}: rate {rate} vs reference {ref} "
                         f"(5 se = {5 * combined:.3g})")
        return fails

    def cycle(seed, index, tmp):
        cs = _cycle_seed(seed, index)
        d = random.Random(cs).randrange(N)

        # Untimed references, from seeds the trials do not use.
        def ref_shift():
            point = success.success_mc(N, k_d, ref_samples, cs + 500)
            return point.p, point.stderr

        def ref_trivial():
            # The per-draw value lies in [0, 1], so its standard deviation
            # is at most 1/2.
            value = success.trivial_success(N, k_triv, ref_samples, cs + 500)
            return value, 0.5 / math.sqrt(ref_samples)

        ops = []
        for hidden, k, ref in ((str(d), k_d, ref_shift),
                               ("trivial", k_triv, ref_trivial)):
            name = f"simulate N={N} k={k} hidden={hidden}"
            ops.append(_cli_op(
                name, ["simulate", "--N", str(N), "--k", str(k), "--hidden",
                       hidden, "--trials", str(trials), "--seed", str(cs),
                       "--threads", threads],
                os.path.join(tmp, f"sim-{hidden}-{index}.csv"), trials,
                lambda res, _r, n=name, ref=ref: check(n, res, ref)))
        return ops

    return cycle, (N,)


# ---------------------------------------------------------------------------
# certify_oracles
# ---------------------------------------------------------------------------

def certify_oracles(scale):
    if scale == "tiny":
        cert, holevo, chi_N = [(2, 1), (2, 2), (3, 1)], [(2, 1)], 8
    else:
        cert, holevo, chi_N = CERT_SIZES, HOLEVO_SIZES, 64

    def check_verify(name, res):
        fails = _expect_ok(name, res)
        bad = [line for line in res.text.splitlines()
               if not line.endswith("PASS")]
        if bad or not res.text:
            fails.append(f"{name}: not all PASS: {bad[:2]}")
        return fails

    def check_perturb(name, res):
        if res.code != 1 or "FAIL" not in res.text:
            return [f"{name}: negative control exit {res.code}, want 1"]
        return []

    def check_holevo(name, report):
        return [] if report.passed else [f"{name}: not optimal"]

    def check_chi(value, _results):
        if abs(value - (1 - 1 / chi_N)) > 1e-9:
            return [f"chi_single_copy({chi_N})={value} != 1 - 1/N"]
        return []

    def holevo_call(N, k):
        def call():
            states = [dihedral.assemble_block_density(d, k, N)
                      for d in range(N)]
            return pgm.verify_holevo(states, [1 / N] * N,
                                     pgm.dense_block_effects(N, k))
        return call

    def cycle(seed, index, tmp):
        ops = []
        for N, k in cert:
            blocks = N ** k * (2 if N % 2 == 0 else 1)  # pgm, plus lsb
            for perturb in (False, True):
                tag = "verify --perturb" if perturb else "verify"
                name = f"{tag} N={N} k={k}"
                argv = ["verify", "--N", str(N), "--k", str(k)]
                argv += ["--perturb"] if perturb else []
                fn = check_perturb if perturb else check_verify
                out = os.path.join(tmp, f"{'p' if perturb else 'v'}{N}-{k}-{index}")
                ops.append(_cli_op(name, argv, out, blocks,
                                   lambda res, _r, n=name, f=fn: f(n, res)))
        for N, k in holevo:
            name = f"verify_holevo N={N} k={k}"
            ops.append(Op(name, "bench.verify_holevo", N ** k, holevo_call(N, k),
                          lambda rep, _r, n=name: check_holevo(n, rep)))
        ops.append(Op(f"chi_single_copy N={chi_N}", "bench.chi_single_copy",
                      0, lambda: success.chi_single_copy(chi_N), check_chi))
        return ops

    return cycle, tuple(sorted({N for N, _ in cert} | {chi_N}))


WORKLOADS = {
    "mc_threshold": mc_threshold,
    "exact_enum": exact_enum,
    "simulate_trials": simulate_trials,
    "certify_oracles": certify_oracles,
}


def build(name, scale):
    """Return (cycle, warm_up) for a workload at the given scale.

    cycle(seed, index, tmp) lists the ops of cycle `index`; warm_up(tmp)
    runs the tiny variant of the same calls and fills the phase tables of
    every N the full cycle uses.
    """
    cycle, moduli = WORKLOADS[name](scale)
    tiny_cycle, _ = WORKLOADS[name]("tiny")

    def warm_up(tmp):
        for N in moduli:
            dihedral.phase_table(N)
        for op in tiny_cycle(0, 0, tmp):
            op.call()
            if op.output:
                os.remove(op.output)

    return cycle, warm_up

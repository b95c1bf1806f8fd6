#!/usr/bin/env python3
"""Benchmark of the dihedral-pgm toolkit: four workloads, end-to-end
metrics with tracing off, and per-layer metrics from a traced run.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py; BENCHMARK.json says why each was chosen):
  mc_threshold     sweep --N 1024 --k 8..12 plus lsb --N 256 at k=4, 12
  exact_enum       sweep --exact at N=8, 16, 64, lsb --exact, enumerators
  simulate_trials  simulate --N 1024, hidden shift k=20 and trivial k=10
  certify_oracles  verify (and --perturb) at every (2N)^k <= 4096

--trace 0 prints the end-to-end metrics:
  items_per_s  median over cycles of items per second of call time
               (the per-cycle rates and minor page faults, and the
               setup times, are printed on "samples" lines)
  peak_mem_mb  tracemalloc peak of cycle 0, in a pass of its own
  setup_s      median time from starting a fresh interpreter to its
               being ready: numpy and the package imported, warm-up run
  ok_frac      1 - (calls that raised or failed a check) / calls attempted
--trace 1 prints the per-layer metrics (spans.PER_LAYER): pairs of an
untraced and a traced pass over the same cycle; the difference in wall
time is trace.overhead_frac.

Every pass runs one cycle in a fresh interpreter (child.py), and cycles
start until --seconds are used.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics; the
lines before it give the run's manifest (machine, versions, commit,
seed), the per-cycle samples and each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spans import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PACKAGE = os.path.join(ROOT, "src", "dihedral_pgm", "__init__.py")

WORKLOADS = ("mc_threshold", "exact_enum", "simulate_trials",
             "certify_oracles")
SETUP_REPEATS = 9
#: Everything, children included, must end within this many seconds.
DEADLINE_S = 170

NOTE = ("CPU frequency scaling, cache state and co-tenant load on the "
        "machine could not be controlled; compare runs made on one machine.")
SCOPE = ("subset-sum solution sampling is not measured: it costs about a "
         "second and no open item targets it.")


class BenchError(RuntimeError):
    pass


def _child(mode, args, tmp, deadline, **extra):
    """Run one pass in a fresh interpreter; return its JSON result.

    Each pass gets a new result file: rewriting an existing file on ext4
    forces a flush on close, which delays the next child by ~50 ms."""
    out = os.path.join(tmp, f"{mode}-{time.monotonic_ns()}.json")
    cmd = [sys.executable, CHILD, mode, "--workload", args.workload,
           "--scale", args.scale, "--seed", str(args.seed), "--tmp", tmp,
           "--out", out]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} pass")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _setup_seconds(args, tmp, deadline):
    """Median time from starting a fresh interpreter to the child being
    ready.  The child reports the instant it is ready: timing the whole
    subprocess call would add the exit and the parent's wait, which
    polls in steps of up to 50 ms when a timeout is set."""
    times = []
    for _ in range(SETUP_REPEATS if args.scale == "full" else 2):
        t0 = time.perf_counter()
        ready = _child("setup", args, tmp, deadline)["ready"]
        times.append(ready - t0)
    print("samples setup_s " + json.dumps(times))
    return statistics.median(times)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    """HEAD of the checkout, read from .git; None outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _why(workload):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec.get("workloads", [])
                 if w.get("name") == workload), None)


def _cycles(args, tmp, deadline, modes):
    """Run cycles 0, 1, ... each in fresh processes, one per mode, until
    --seconds are used; a cycle starts only if the last one suggests it
    ends in time.  Return {mode: [pass result, ...]}."""
    passes = {mode: [] for mode in modes}
    start = time.monotonic()
    last = 0.0
    while not passes[modes[0]] or time.monotonic() - start + last <= args.seconds:
        t0 = time.monotonic()
        index = len(passes[modes[0]])
        for mode in modes:
            passes[mode].append(_child(mode, args, tmp, deadline, index=index))
        last = time.monotonic() - t0
    return passes


def _end_to_end(args, tmp, deadline):
    setup_s = _setup_seconds(args, tmp, deadline)
    mem = _child("mem", args, tmp, deadline, index=0)
    timed = _cycles(args, tmp, deadline, ("timed",))["timed"]
    rates = [c["items"] / c["wall"] for c in timed]
    print("samples items_per_s " + json.dumps(rates))
    print("samples minflt " + json.dumps([c["minflt"] for c in timed]))
    passes = [mem] + timed
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    metrics = {
        "items_per_s": (statistics.median(rates), "items/s"),
        "peak_mem_mb": (mem["peak_mem_mb"], "MB"),
        "setup_s": (setup_s, "s"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    return metrics, passes


def _per_layer(args, tmp, deadline):
    """Pairs of an untraced and a traced pass over the same cycle; layer
    metrics are means over the traced passes, so layer self times still
    add up to the mean traced wall."""
    got = _cycles(args, tmp, deadline, ("timed", "traced"))
    plain, traced = got["timed"], got["traced"]
    n = len(plain)
    layers = {name: sum(t["layers"][name] for t in traced) / n
              for name in traced[0]["layers"]}
    untraced = sum(c["wall"] for c in plain) / n
    traced_wall = sum(c["wall"] for c in traced) / n
    layers["proc.minflt"] = statistics.median(c["minflt"] for c in plain)
    layers["trace.untraced_wall_s"] = untraced
    layers["trace.traced_wall_s"] = traced_wall
    layers["trace.overhead_frac"] = traced_wall / untraced - 1.0
    metrics = {name: (layers[name], unit) for name, unit in PER_LAYER.items()}
    return metrics, plain + traced


def main(argv=None):
    p = argparse.ArgumentParser(
        description="dihedral-pgm benchmark (see module docstring)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny runs every call at toy size (smoke test only)")
    args = p.parse_args(argv)

    if not os.path.isfile(PACKAGE):
        print(f"error: package source not found at {PACKAGE}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        measure = _per_layer if args.trace else _end_to_end
        metrics, passes = measure(args, tmp, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    for r in passes:
        for message in r["failures"]:
            print(f"check failed: {message}", file=sys.stderr)
    manifest = {
        "workload": args.workload, "why": _why(args.workload),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "passes": len(passes), "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(), "python": passes[-1]["python"],
        "numpy": passes[-1]["numpy"], "commit": _git_commit(), "note": NOTE,
        "scope": SCOPE,
    }
    print("manifest " + json.dumps(manifest))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

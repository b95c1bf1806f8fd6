"""One pass of one workload, in a fresh interpreter started by run.py.

Modes:
  setup   import numpy and the package, run the warm-up, exit
  mem     warm up, then cycle --index under tracemalloc (peak only)
  timed   warm up, then cycle --index
  traced  warm up, install the tracer, then cycle --index

A pass runs exactly one cycle, so every sample is taken in a fresh
process: allocator state left by earlier work (glibc raises its mmap
threshold after a large free, which halves the time and the page faults
of the O(N^2) cross-product path) cannot reach a metric.  The pass
writes its result as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy  # noqa: E402

import dihedral_pgm  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_cycle(ops, tracer=None):
    """Run the ops of one cycle; return (wall seconds, results, errors)."""
    results, errors, wall = {}, {}, 0.0
    for op in ops:
        layer, name = op.root.split(".", 1)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                results[op.name] = op.call()
            else:
                with tracer.root(name, layer):
                    results[op.name] = op.call()
        except Exception:  # a failing call is counted, the run goes on
            errors[op.name] = traceback.format_exc(limit=3)
        if tracer is None:
            wall += time.perf_counter() - t0
        else:  # the root span, so the traced wall is what its spans cover
            _, _, _, start, end, _, _ = tracer.spans[-1]
            wall += end - start
    return wall, results, errors


def check_cycle(ops, results, errors):
    """Check every op; return ({op name: failure messages}, output bytes)."""
    failures, out_bytes = {}, 0
    for op in ops:
        if op.name in errors:
            failures[op.name] = [f"{op.name} raised:\n{errors[op.name]}"]
            continue
        try:
            found = op.check(results[op.name], results)
        except Exception:  # a malformed output fails its check
            found = [f"{op.name} check raised:\n"
                     f"{traceback.format_exc(limit=3)}"]
        if found:
            failures[op.name] = found
        if op.output and os.path.exists(op.output):
            out_bytes += os.path.getsize(op.output)
            os.remove(op.output)
        raw = results.get(op.name)
        if isinstance(raw, workloads.CliResult):
            out_bytes += len(raw.stdout.encode())
    return failures, out_bytes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=("setup", "mem", "timed", "traced"))
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--scale", default="full", choices=("full", "tiny"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--tmp", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    package = os.path.dirname(os.path.abspath(dihedral_pgm.__file__))
    if package != os.path.join(SRC, "dihedral_pgm"):
        raise SystemExit(f"dihedral_pgm imported from {package}, not {SRC}")

    cycle, warm_up = workloads.build(args.workload, args.scale)
    warm_up(args.tmp)
    if args.mode == "setup":
        # perf_counter is CLOCK_MONOTONIC, shared with the parent process.
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"ready": time.perf_counter()}, fh)
        return 0

    tracer = None
    if args.mode == "traced":
        tracer = spans.Tracer()
        try:
            spans.install(tracer)
        except spans.MissingTarget as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3

    ops = cycle(args.seed, args.index, args.tmp)
    faults = _minflt()
    if args.mode == "mem":
        tracemalloc.start()
        wall, results, errors = run_cycle(ops)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
    else:
        wall, results, errors = run_cycle(ops, tracer)
        peak = None
    faults = _minflt() - faults
    failures, out_bytes = check_cycle(ops, results, errors)
    result = {"numpy": numpy.__version__, "python": sys.version.split()[0],
              "attempted": len(ops), "failed": len(failures),
              "failures": [m for ms in failures.values() for m in ms][:5],
              "wall": wall, "items": sum(o.items for o in ops),
              "minflt": faults, "output_bytes": out_bytes,
              "peak_mem_mb": peak}
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["layers"]["cli.output_bytes"] = out_bytes

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Write a BENCH file: every benchmark workload over several seeds and
the slowest CLI commands over several passes, each metric with all its
runs, their median and quartiles.

Run from the repository root:

  python3 tools/bench.py --out BENCH_<n>.json
  python3 tools/bench.py --scale tiny --out bench-smoke.json

For each workload of BENCHMARK.json it runs, once per seed 1 .. 5,

  python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0

and keeps the JSON object on the last line of each run.  A run whose
`correct` is not true, or that exits nonzero, fails the whole bench:
it exits 1 and writes no file.  It then times each command of
CLI_COMMANDS, 3 passes each, as the wall time of a fresh interpreter
from start to exit; a command that exits nonzero fails the bench too.
The file records the commit, whether the tree held uncommitted
changes, the git tree ids of src/ and perfbench/ as measured (equal to
`git rev-parse <commit>:src` of the commit that holds that code, so a
dirty run still names the code it timed), the machine (nproc,
platform, Python and numpy versions) and the seeds.

At --scale tiny the workloads run at perfbench's toy size for 1 second,
seed 1 only, and the commands at toy sizes, one pass each: a smoke test
of this script, not a measurement.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

#: The two commands where the program is slowest, at full scale, and a
#: toy size of each for the smoke test; each writes its CSV to a file.
CLI_COMMANDS = {
    "full": [
        ["sweep", "--N", "65536", "--k", "12..20", "--threads", "2"],
        ["simulate", "--N", "65536", "--k", "16", "--hidden", "5",
         "--threads", "2"],
    ],
    "tiny": [
        ["sweep", "--N", "64", "--k", "2..5", "--samples", "500",
         "--threads", "2"],
        ["simulate", "--N", "64", "--k", "5", "--hidden", "5", "--trials",
         "500", "--threads", "2"],
    ],
}

#: By scale: the seconds each perfbench run is given, the seeds of its
#: runs and the passes of each command.
SCALES = {"full": (10, [1, 2, 3, 4, 5], 3), "tiny": (1, [1], 1)}


class BenchError(RuntimeError):
    pass


def spread(values: list[float]) -> dict:
    """values in run order with their median and quartiles (the
    inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"runs": list(values), "median": median, "q1": q1, "q3": q3}


def last_result(stdout: str) -> dict:
    """The JSON object on the last line of a perfbench/run.py run."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("the run printed nothing")
    return json.loads(lines[-1])


def summarize(runs: dict[str, list[tuple[int, str]]]) -> dict:
    """Per workload, from its (seed, stdout) runs: each run's seed,
    verdict and call counts, and for each metric its unit and spread()
    over the runs.  Raises BenchError naming the first run whose
    `correct` is not true, or whose metrics differ in name from the
    workload's first run."""
    out = {}
    for workload, seeded in runs.items():
        results = []
        for seed, stdout in seeded:
            result = last_result(stdout)
            if result.get("correct") is not True:
                raise BenchError(f"{workload} seed {seed}: correct is "
                                 f"{result.get('correct')!r}")
            results.append(result)
        names = list(results[0]["metrics"])
        for seed, result in zip((s for s, _ in seeded), results):
            if list(result["metrics"]) != names:
                raise BenchError(f"{workload} seed {seed}: metrics "
                                 f"{list(result['metrics'])} differ")
        out[workload] = {
            "runs": [{"seed": seed, **{key: result[key] for key in
                                       ("correct", "attempted", "failed")}}
                     for (seed, _), result in zip(seeded, results)],
            "metrics": {name: {"unit": results[0]["metrics"][name]["unit"],
                               **spread([r["metrics"][name]["value"]
                                         for r in results])}
                        for name in names},
        }
    return out


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout


def _workloads() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def _trees() -> dict | None:
    """The git tree ids of the tracked files of src/ and perfbench/ in the
    working tree: those of HEAD when it is clean, else those of a stash
    commit of the tree (`git stash create`, which changes neither the
    tree nor the stash list)."""
    stash = _git("stash", "create")
    rev = stash.strip() if stash and stash.strip() else "HEAD"
    trees = {d: _git("rev-parse", f"{rev}:{d}") for d in ("src", "perfbench")}
    if None in trees.values():
        return None
    return {d: tree.strip() for d, tree in trees.items()}


def _perfbench(workload: str, seed: int, scale: str) -> str:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(SCALES[scale][0]), "--trace", "0"]
    if scale == "tiny":
        cmd += ["--scale", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        raise BenchError(f"{workload} seed {seed} exited {done.returncode}: "
                         f"{done.stderr.strip()}")
    return done.stdout


def _time_cli(argv: list[str], tmp: str) -> float:
    """Wall seconds of one CLI run in a fresh interpreter, its CSV
    written to a file in tmp."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    cmd = [sys.executable, "-m", "dihedral_pgm.cli", *argv, "--output",
           os.path.join(tmp, "out.csv")]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    if done.returncode:
        raise BenchError(f"{' '.join(argv)} exited {done.returncode}: "
                         f"{done.stderr.strip()}")
    return wall


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="the JSON file to write")
    p.add_argument("--scale", choices=tuple(SCALES), default="full")
    args = p.parse_args(argv)
    seconds, seeds, passes = SCALES[args.scale]

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    bench = {
        "commit": commit.strip() if commit else None,
        "dirty": None if status is None else bool(status.strip()),
        "trees": _trees(),
        "machine": {
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "scale": args.scale, "seconds": seconds, "seeds": seeds,
    }
    try:
        runs = {}
        for workload in _workloads():
            runs[workload] = []
            for seed in seeds:
                runs[workload].append(
                    (seed, _perfbench(workload, seed, args.scale)))
                print(f"{workload} seed {seed} done", file=sys.stderr)
        bench["workloads"] = summarize(runs)
        bench["cli"] = {}
        with tempfile.TemporaryDirectory() as tmp:
            for command in CLI_COMMANDS[args.scale]:
                walls = [_time_cli(command, tmp) for _ in range(passes)]
                bench["cli"][" ".join(command)] = {"argv": command,
                                                   "unit": "s",
                                                   **spread(walls)}
                print(f"{' '.join(command)} done", file=sys.stderr)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

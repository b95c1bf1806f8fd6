"""Smoke test of the benchmark: every workload at toy size, both modes.

Run from the repository root (not part of the tier-1 suite):

  python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_present(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(got[m["name"]]["value"])
    if trace:
        value = {name: v["value"] for name, v in got.items()}
        # Layer self times partition the traced wall time, so they are
        # within the tracing overhead of the untraced wall time.
        layer_sum = sum(value[f"{layer}.self_s"] for layer in spans.LAYERS)
        traced, untraced = value["trace.traced_wall_s"], value["trace.untraced_wall_s"]
        assert layer_sum == pytest.approx(traced, rel=1e-6)
        assert abs(layer_sum - untraced) <= abs(traced - untraced) + 1e-9 * traced


def test_per_layer_names_match_spec():
    assert list(spans.PER_LAYER.items()) == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_splits_parallel_leaves():
    # root [0, 10] with two pool tasks [2, 6] and [4, 8] in other threads
    spans_ = [(1, "cli.x", "cli", 0.0, 10.0, 0, 1),
              (2, "simulate.shard", "simulate", 2.0, 6.0, 1, 2),
              (3, "simulate.shard", "simulate", 4.0, 8.0, 1, 3)]
    own = spans.self_times(spans_)
    assert own[1] == pytest.approx(4.0)  # [0, 2] and [8, 10]
    assert own[2] == pytest.approx(3.0)  # [2, 4] alone, half of [4, 6]
    assert own[3] == pytest.approx(3.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_missing_wrap_target_is_an_error(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [
        ("dihedral_pgm.success", "no_such_kernel", "success", "call", None)])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with pytest.raises(spans.MissingTarget, match="success.no_such_kernel"):
        spans.install(spans.Tracer())

"""The summary step of tools/bench.py, fed canned perfbench run lines."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "bench.py")
_SPEC = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def _run(items_per_s, correct=True, failed=0):
    """The stdout of one perfbench/run.py --trace 0 run: its manifest,
    metric lines and the JSON result last."""
    result = {"correct": correct, "attempted": 9, "failed": failed,
              "metrics": {"items_per_s": {"value": items_per_s,
                                          "unit": "items/s"},
                          "ok_frac": {"value": 1 - failed / 9,
                                      "unit": "frac"}}}
    return "\n".join([
        "samples items_per_s [1.0, 2.0]",
        "manifest " + json.dumps({"cpu_model": "test CPU", "seed": 1}),
        f"items_per_s {items_per_s:.6g} items/s",
        json.dumps(result)]) + "\n"


def test_summary_keeps_every_run_with_median_and_quartiles():
    runs = {"exact_enum": [(s, _run(v)) for s, v in
                           zip([1, 2, 3, 4, 5], [30.0, 10.0, 50.0, 20.0, 40.0])],
            "mc_threshold": [(7, _run(3.0))]}
    out = bench.summarize(runs)
    assert list(out) == ["exact_enum", "mc_threshold"]
    rate = out["exact_enum"]["metrics"]["items_per_s"]
    assert rate == {"unit": "items/s", "runs": [30.0, 10.0, 50.0, 20.0, 40.0],
                    "median": 30.0, "q1": 20.0, "q3": 40.0}
    assert out["exact_enum"]["runs"][1] == {"seed": 2, "correct": True,
                                            "attempted": 9, "failed": 0}
    one = out["mc_threshold"]["metrics"]["items_per_s"]
    assert one["median"] == one["q1"] == one["q3"] == 3.0
    assert out["mc_threshold"]["metrics"]["ok_frac"]["runs"] == [1.0]


@pytest.mark.parametrize("bad", [
    _run(5.0, correct=False, failed=1),
    _run(5.0).replace('"correct": true, ', ""),
    _run(5.0, correct="true")])
def test_summary_fails_on_a_run_that_is_not_correct(bad):
    runs = {"simulate_trials": [(1, _run(4.0)), (2, bad), (3, _run(6.0))]}
    with pytest.raises(bench.BenchError, match="simulate_trials seed 2"):
        bench.summarize(runs)


def test_summary_fails_on_an_empty_run_or_other_metrics():
    with pytest.raises(bench.BenchError, match="printed nothing"):
        bench.summarize({"exact_enum": [(1, "\n")]})
    other = _run(2.0).replace('"ok_frac"', '"peak_mem_mb"')
    with pytest.raises(bench.BenchError, match="exact_enum seed 2: metrics"):
        bench.summarize({"exact_enum": [(1, _run(1.0)), (2, other)]})

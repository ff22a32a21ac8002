"""The summary arithmetic of scripts/bench_pairs.py on canned result lines
(no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [("op_ms_p95", "lower", 0.24),
           ("frames_per_s_p10", "higher", 0.24),
           ("cache_bytes", "lower", 0.01)]


def line(op_ms, fps, failed=0):
    """The last stdout line of a run of benchmark/run.py."""
    return json.dumps({"correct": failed == 0, "attempted": 100,
                       "failed": failed, "metrics": {
                           "op_ms_p95": {"value": op_ms, "unit": "ms"},
                           "frames_per_s_p10": {"value": fps, "unit": "1/s"},
                           "cache_bytes": {"value": 32768,
                                           "unit": "bytes"}}})


def runs():
    stdout = "record {}\nmetric x = 1\n"
    canned = {  # seed: (parent (op_ms, fps), change (op_ms, fps))
        1: ((0.20, 5000.0), (0.15, 8000.0)),
        2: ((0.22, 5200.0), (0.16, 7600.0)),
        3: ((0.18, 5600.0), (0.19, 5600.0)),
        4: ((0.24, 4800.0), (0.14, 8200.0)),
    }
    out = []
    for seed, sides in canned.items():
        for side, (op_ms, fps) in zip(("parent", "change"), sides):
            result, _ = bench_pairs.parse_result(stdout + line(op_ms, fps))
            out.append({"side": side, "workload": "stream_small",
                        "seed": seed, "trace": 0, "result": result})
    # a traced run and an unpaired seed count toward no metric
    out.append({"side": "parent", "workload": "stream_small", "seed": 1,
                "trace": 1, "result": json.loads(line(9.0, 1.0))})
    out.append({"side": "change", "workload": "stream_small", "seed": 9,
                "trace": 0, "result": json.loads(line(0.01, 1e6, failed=2))})
    return out


def test_summary_of_canned_pairs():
    s = bench_pairs.summarize(runs(), METRICS)["stream_small"]
    op = s["op_ms_p95"]
    assert (op["pairs"], op["change_wins"], op["ties"]) == (4, 3, 0)
    # numpy's linear-interpolation quartiles of 0.18, 0.20, 0.22, 0.24
    assert op["parent_q1_median_q3"] == pytest.approx([0.195, 0.21, 0.225])
    assert op["change_q1_median_q3"] == pytest.approx([0.1475, 0.155,
                                                       0.1675])
    assert op["median_ratio"] == round(0.155 / 0.21, 4)
    assert op["parent_iqr"] == pytest.approx(0.03)
    fps = s["frames_per_s_p10"]
    assert (fps["change_wins"], fps["ties"]) == (3, 1)
    assert fps["median_ratio"] == round(7800.0 / 5100.0, 4)
    cache = s["cache_bytes"]
    assert (cache["change_wins"], cache["ties"]) == (0, 4)
    assert cache["median_ratio"] == 1.0 and cache["parent_iqr"] == 0.0
    assert s["failed_ops"] == {"parent": 0, "change": 2}
    assert s["all_correct"] is False
    assert not any(s[name]["beyond_bound"] for name, _, _ in METRICS)


@pytest.mark.parametrize("change,beyond", [((0.24, 3900.0), False),
                                           ((0.26, 3700.0), True)])
def test_beyond_bound_on_each_side_of_the_bound(change, beyond):
    # parent 0.20 ms and 5000/s, bound 0.24: the change's median may read
    # up to 0.248 ms and down to 3800/s
    runs = [{"side": side, "workload": "stream_small", "seed": seed,
             "trace": 0, "result": json.loads(line(*values))}
            for seed in range(3)
            for side, values in (("parent", (0.20, 5000.0)),
                                 ("change", change))]
    s = bench_pairs.summarize(runs, METRICS)["stream_small"]
    assert s["op_ms_p95"]["beyond_bound"] is beyond
    assert s["frames_per_s_p10"]["beyond_bound"] is beyond
    assert s["cache_bytes"]["beyond_bound"] is False


def test_unparsable_run_counts_as_incorrect():
    result, record = bench_pairs.parse_result("Traceback ...\nboom")
    assert result["correct"] is False and result["metrics"] == {}
    assert record == {}

"""Tests of the benchmark itself: inputs, oracles, tracing and the CLI.

Run from the repository root:  python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer as tr  # noqa: E402
import workloads as W  # noqa: E402
from depthstream import tensor as T  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seconds=1, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", sorted(W.CONFIGS))
def test_inputs_repeat_for_a_seed(workload, tmp_path):
    a = W.make_inputs(workload, 7, tmp_path / "a")
    b = W.make_inputs(workload, 7, tmp_path / "b")
    c = W.make_inputs(workload, 8, tmp_path / "c")

    def arrays(inp):
        flat = []
        for clip in inp.clips + ([inp.held_out] if inp.held_out else []):
            flat += list(clip) if isinstance(clip, tuple) else [clip]
        return flat

    assert a.cfg == b.cfg
    assert all(np.array_equal(x, y) for x, y in zip(arrays(a), arrays(b)))
    assert not all(np.array_equal(x, y)
                   for x, y in zip(arrays(a), arrays(c)))
    if a.checkpoint is not None:
        assert a.checkpoint.read_bytes() == b.checkpoint.read_bytes()


def test_band_c_minus_1_mutation_fails_the_oracle(tmp_path):
    inp = W.make_inputs("stream_small", 2, tmp_path)
    model, _ = W.setup_stream(inp.checkpoint, 1)
    clip = inp.clips[0]
    with T.finite_checks(False):
        out, _ = W.stream_frames(model, clip)
        for band, should_pass in ((W.CONTEXT, True), (W.CONTEXT - 1, False)):
            res = W.Result(2, {})
            diff, finite = W.stream_vs_batch(model, clip, out, band)
            W._equiv_check(res, "equiv", diff, finite)
            assert res.correct is should_pass, (band, diff)


def test_self_time_excludes_children():
    tracer = tr.Tracer()
    with tracer.root("op"):
        tracer.push("outer")
        tracer.push("inner")
        tracer.pop("inner", "inner")
        tracer.pop("outer", "outer")
    spans = {s[2]: s for s in tracer.spans}
    outer, inner = spans["outer"], spans["inner"]
    assert inner[1] == outer[0]
    assert outer[5] == (outer[4] - outer[3]) - (inner[4] - inner[3])
    assert tracer.stat("op", "outer").incl_ns == outer[4] - outer[3]
    assert tracer.units["op"] == 1


def test_missing_entry_point_is_absent_not_a_crash(monkeypatch):
    extra = ("model", None, "no_such_entry_point", "model.encode", None)
    monkeypatch.setattr(tr, "ENTRY_POINTS", tr.ENTRY_POINTS + [extra])
    from depthstream import model as M
    original = M.load_checkpoint
    with tr.installed(tr.Tracer()) as absent:
        assert M.load_checkpoint is not original
    assert absent == ["model.no_such_entry_point"]
    assert M.load_checkpoint is original


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(W.CONFIGS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    lines, result = _result(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith("metric ") and m["name"] in line
                   and line.endswith("]") and f" {m['unit']} [" in line
                   for line in lines), m["name"]
    assert any(line.startswith("metric fail_rate") for line in lines)
    record = json.loads(next(line for line in lines
                             if line.startswith("record "))[7:])
    assert record["config"] == {**W.CONFIGS[workload], "seed": 3,
                                "fusion_factors": [4, 2, 1, 0.5]}
    assert {"numpy", "blas_name", "blas_version", "blas_threads", "nproc",
            "python", "cpu_model"} <= set(record["env"])


@pytest.mark.parametrize("workload,trace,names", [
    ("stream_small", 1, ("tensor.ops", "cache.evictions", "cache.fill",
                         "cache.window_bytes")),
    ("train_clips", 1, ("tensor.ops", "tensor.tape_nodes")),
    ("stream_large", 0, ("cache_bytes",)),
])
def test_exact_counts_repeat_across_runs(workload, trace, names):
    runs = [_result(run_bench(workload, trace))[1]["metrics"]
            for _ in range(2)]
    for name in names:
        assert runs[0][name]["value"] == runs[1][name]["value"] > 0, name


def test_without_library_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("stream_small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

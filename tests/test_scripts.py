"""Smoke tests: the demo scripts run end to end at a tiny budget."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from depthstream.losses import ABLATION_ROWS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def test_run_pipeline(tmp_path):
    proc = run_script("run_pipeline.py", "--out", "demo", "--steps", "2",
                      "--frames", "20", "--context", "4", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "ALL CHECKS PASSED" in proc.stdout
    assert (tmp_path / "demo" / "train" / "model.ckpt").exists()


def test_run_ablation(tmp_path):
    proc = run_script("run_ablation.py", "--out", "ablation.csv",
                      "--steps", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "ablation.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["config"] for r in rows] == [name for name, _, _ in
                                           ABLATION_ROWS]
    for r in rows:
        assert r["seeds"] == "5"
        for metric in ("absrel", "delta1"):
            assert float(r[f"{metric}_std"]) >= 0.0
            assert float(r[f"{metric}_mean"]) >= 0.0
            assert float(r[f"{metric}_median"]) >= 0.0
            assert 0 <= int(r[f"{metric}_wins"]) <= 5
            if r["config"] == "none":  # paired with itself
                assert float(r[f"{metric}_vs_none"]) == 0.0
                assert r[f"{metric}_wins"] == "0"


def test_ablation_summary_pairs_each_seed_with_none():
    spec = importlib.util.spec_from_file_location(
        "run_ablation", ROOT / "scripts" / "run_ablation.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # (absrel, delta1) of none and of x, one pair of rows per seed
    seeds = [((1.0, 0.1), (0.5, 0.2)), ((2.0, 0.2), (3.0, 0.1)),
             ((10.0, 0.0), (4.0, 0.0))]
    runs = [[{"config": name, "absrel": a, "delta1": d}
             for name, (a, d) in zip(("none", "x"), seed)] for seed in seeds]
    none, x = script.summarize(runs)
    assert none["absrel_wins"] == none["delta1_wins"] == 0
    assert x["absrel_mean"] == pytest.approx(2.5)
    assert x["absrel_median"] == 3.0
    # per-seed differences: absrel -0.5, +1.0, -6.0; delta1 +0.1, -0.1, 0
    assert x["absrel_vs_none"] == pytest.approx(-0.5)
    assert x["absrel_wins"] == 2
    assert x["delta1_vs_none"] == pytest.approx(0.0)
    assert x["delta1_wins"] == 1

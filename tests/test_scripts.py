"""Smoke tests: the demo scripts run end to end at a tiny budget."""

import csv
import os
import subprocess
import sys
from pathlib import Path

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

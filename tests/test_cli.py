import csv
import json

import numpy as np
import pytest

from depthstream import cli
from depthstream.data import read_pfm
from depthstream.model import load_checkpoint


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generated dataset plus a short training run, shared across
    the read-only CLI tests below."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    train = root / "train"
    assert run("gen", "--out", str(data), "--frames", "12",
               "--sequences", "1", "--height", "32", "--width", "32",
               "--invalid-fraction", "0.05", "--seed", "3") == 0
    assert run("train", "--data", str(data), "--out", str(train),
               "--steps", "3", "--context", "4", "--seed", "0") == 0
    return {"root": root, "data": data, "train": train,
            "ckpt": train / "model.ckpt"}


class TestGen:
    def test_outputs_and_run_record(self, pipeline):
        data = pipeline["data"]
        assert (data / "seq000.manifest").exists()
        assert (data / "seq000_00000_rgb.ppm").exists()
        assert (data / "seq000_00000_depth.pfm").exists()
        record = json.loads((data / "run_config.json").read_text())
        assert record["seed"] == 3
        assert record["frames"] == 12

    def test_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            assert run("gen", "--out", str(tmp_path / sub), "--frames", "4",
                       "--sequences", "1", "--height", "16", "--width", "16",
                       "--seed", "9") == 0
        name = "seq000_00002_depth.pfm"
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())

    def test_zero_frames_is_usage_error(self, tmp_path):
        assert run("gen", "--out", str(tmp_path / "x"),
                   "--frames", "0") == 1

    def test_missing_required_flag_is_usage_error(self):
        assert run("gen") == 1


class TestTrain:
    def test_artifacts(self, pipeline):
        train = pipeline["train"]
        assert pipeline["ckpt"].exists()
        lines = (train / "train_log.csv").read_text().splitlines()
        assert lines[0] == "step,loss,ssi,tgm,sascon,lr"
        assert len(lines) == 1 + 3

    def test_resume_continues_step_counter(self, pipeline, tmp_path):
        _, extra = load_checkpoint(pipeline["ckpt"])
        assert extra["steps_done"] == 3
        out = tmp_path / "resumed"
        assert run("train", "--data", str(pipeline["data"]),
                   "--out", str(out), "--steps", "2", "--context", "4",
                   "--resume", str(pipeline["ckpt"])) == 0
        _, extra2 = load_checkpoint(out / "model.ckpt")
        assert extra2["steps_done"] == 5

    def test_missing_data_dir_is_usage_error(self, tmp_path):
        assert run("train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")) == 1


class TestInference:
    def test_stream_matches_batch(self, pipeline, tmp_path):
        s_out, b_out = tmp_path / "stream", tmp_path / "batch"
        common = ("--data", str(pipeline["data"]), "--model",
                  str(pipeline["ckpt"]), "--context", "4")
        assert run("stream", "--out", str(s_out), *common) == 0
        assert run("infer-batch", "--out", str(b_out), *common) == 0
        names = (s_out / "seq000.predlist").read_text().split()
        assert names == (b_out / "seq000.predlist").read_text().split()
        for n in names:
            diff = np.abs(read_pfm(s_out / n) - read_pfm(b_out / n)).max()
            assert diff < 1e-5
        lat = (s_out / "seq000_latency.csv").read_text().splitlines()
        assert lat[0] == "frame,latency_ms"
        assert len(lat) == 1 + len(names)

    def test_stream_matches_batch_below_trained_context(self, pipeline,
                                                        tmp_path):
        # the checkpoint was trained at c=4; both modes must honour c=2
        common = ("--data", str(pipeline["data"]), "--model",
                  str(pipeline["ckpt"]), "--context", "2")
        s_out, b_out = tmp_path / "stream", tmp_path / "batch"
        assert run("stream", "--out", str(s_out), *common) == 0
        assert run("infer-batch", "--out", str(b_out), *common) == 0
        names = (s_out / "seq000.predlist").read_text().split()
        diff = max(np.abs(read_pfm(s_out / n) - read_pfm(b_out / n)).max()
                   for n in names)
        assert diff < 1e-5

    @pytest.mark.parametrize("flags", [("--caches", "2"),
                                       ("--precision", "fp16"),
                                       ("--context", "5")])
    def test_batch_rejects_what_it_cannot_emulate(self, pipeline, tmp_path,
                                                  flags, capsys):
        assert run("infer-batch", "--data", str(pipeline["data"]), "--out",
                   str(tmp_path / "b"), "--model", str(pipeline["ckpt"]),
                   "--context", "4", *flags) == 1
        assert "error:" in capsys.readouterr().err

    def test_stride_reduces_frames(self, pipeline, tmp_path):
        out = tmp_path / "s2"
        assert run("stream", "--data", str(pipeline["data"]), "--out",
                   str(out), "--model", str(pipeline["ckpt"]),
                   "--context", "4", "--stride", "2") == 0
        assert len((out / "seq000.predlist").read_text().split()) == 6

    def test_fp16_halves_cache_bytes(self, pipeline, tmp_path, capsys):
        sizes = {}
        for prec in ("fp32", "fp16"):
            out = tmp_path / prec
            assert run("stream", "--data", str(pipeline["data"]), "--out",
                       str(out), "--model", str(pipeline["ckpt"]),
                       "--context", "4", "--precision", prec) == 0
            line = [l for l in capsys.readouterr().out.splitlines()
                    if "cache bytes=" in l][-1]
            sizes[prec] = int(line.split("cache bytes=")[1])
        assert sizes["fp16"] * 2 == sizes["fp32"]


class TestEvalAndDrift:
    @pytest.fixture()
    def preds(self, pipeline, tmp_path_factory):
        out = tmp_path_factory.mktemp("preds")
        assert run("stream", "--data", str(pipeline["data"]), "--out",
                   str(out), "--model", str(pipeline["ckpt"]),
                   "--context", "4") == 0
        return out

    @pytest.mark.parametrize("align", ["first", "global500", "globalall"])
    def test_eval_csv(self, pipeline, preds, tmp_path, align):
        out = tmp_path / align
        assert run("eval", "--pred", str(preds), "--gt",
                   str(pipeline["data"]), "--out", str(out),
                   "--align", align) == 0
        rows = list(csv.reader((out / "eval.csv").open()))
        assert rows[0] == ["metric", "value"]
        metrics = {k: float(v) for k, v in rows[1:]}
        assert set(metrics) == {"absrel", "delta1"}
        assert metrics["absrel"] >= 0.0
        assert 0.0 <= metrics["delta1"] <= 1.0

    def test_eval_missing_preds_is_usage_error(self, pipeline, tmp_path):
        assert run("eval", "--pred", str(tmp_path / "empty"), "--gt",
                   str(pipeline["data"]), "--out",
                   str(tmp_path / "out")) == 1

    def test_drift_csv(self, pipeline, preds, tmp_path):
        out = tmp_path / "drift"
        assert run("drift", "--pred", str(preds), "--gt",
                   str(pipeline["data"]), "--out", str(out),
                   "--smooth", "4") == 0
        rows = list(csv.reader((out / "drift.csv").open()))
        assert rows[0] == ["frame_index", "drift", "data_support"]
        assert len(rows) == 1 + 12
        assert float(rows[1][1]) >= 0.0
        assert int(rows[1][2]) > 0


class TestBench:
    def test_report_keys(self, tmp_path):
        out = tmp_path / "bench"
        assert run("bench", "--out", str(out), "--frames", "24",
                   "--context", "4") == 0
        rows = dict(list(csv.reader((out / "bench.csv").open()))[1:])
        assert set(rows) == {"frames", "warmup_excluded", "context",
                             "caches", "precision", "stream_median_ms",
                             "batch_recompute_ms_per_frame", "cache_bytes"}
        assert int(rows["frames"]) == 24
        assert int(rows["warmup_excluded"]) == 4
        assert float(rows["stream_median_ms"]) > 0.0
        assert int(rows["cache_bytes"]) > 0


class TestCheck:
    def test_check_passes(self, capsys):
        assert run("check", "--seed", "0") == 0
        assert "ALL CHECKS PASSED" in capsys.readouterr().out

    def test_check_failure_exit_code(self, monkeypatch, capsys):
        from depthstream import verify
        monkeypatch.setattr(verify, "run_all", lambda seed: False)
        assert run("check") == 2
        assert "CHECK FAILURE" in capsys.readouterr().out

import csv
import json
import shutil

import numpy as np
import pytest

from depthstream import cli
from depthstream.data import read_manifest, read_pfm, write_pfm
from depthstream.model import (CHECKPOINT_MAGIC, load_checkpoint,
                               save_checkpoint)


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

    def test_resume_takes_omitted_model_flags_from_checkpoint(
            self, pipeline, tmp_path):
        out = tmp_path / "resumed"
        assert run("train", "--data", str(pipeline["data"]),
                   "--out", str(out), "--steps", "1",
                   "--resume", str(pipeline["ckpt"])) == 0
        model, _ = load_checkpoint(out / "model.ckpt")
        record = json.loads((out / "run_config.json").read_text())
        assert (model.cfg.context, model.cfg.cache_modulus,
                model.cfg.precision) == (4, 1, "fp32")
        assert {k: record[k] for k in ("context", "caches", "precision",
                                       "height", "width")} == {
            "context": 4, "caches": 1, "precision": "fp32",
            "height": 32, "width": 32}

    @pytest.mark.parametrize("flags", [("--context", "8"), ("--caches", "2"),
                                       ("--precision", "fp16"),
                                       ("--height", "16")])
    def test_resume_rejects_conflicting_model_flag(self, pipeline, tmp_path,
                                                   flags, capsys):
        out = tmp_path / "resumed"
        assert run("train", "--data", str(pipeline["data"]),
                   "--out", str(out), "--steps", "1",
                   "--resume", str(pipeline["ckpt"]), *flags) == 1
        assert "error:" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    def test_missing_data_dir_is_usage_error(self, tmp_path):
        assert run("train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")) == 1

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_no_steps_is_usage_error(self, pipeline, tmp_path, capsys, steps):
        out = tmp_path / "out"
        assert run("train", "--data", str(pipeline["data"]),
                   "--out", str(out), "--steps", steps) == 1
        assert capsys.readouterr().err == "error: --steps must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("batch", ["0", "-1"])
    def test_no_batch_is_usage_error(self, pipeline, tmp_path, capsys, batch):
        out = tmp_path / "out"
        assert run("train", "--data", str(pipeline["data"]),
                   "--out", str(out), "--batch", batch) == 1
        assert capsys.readouterr().err == "error: --batch must be >= 1\n"
        assert not out.exists()


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

    def test_batch_rejects_context_below_one(self, pipeline, tmp_path,
                                             capsys):
        assert run("infer-batch", "--data", str(pipeline["data"]), "--out",
                   str(tmp_path / "b"), "--model", str(pipeline["ckpt"]),
                   "--context", "0") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("stream", "--seed", "1"), ("infer-batch", "--seed", "1"),
        ("eval", "--seed", "1"), ("drift", "--seed", "1"),
        ("train", "--cosine")], ids=" ".join)
    def test_flags_that_did_nothing_are_rejected(self, pipeline, tmp_path,
                                                 argv, capsys):
        command, *flags = argv
        required = {"stream": ("--data", "--model"),
                    "infer-batch": ("--data", "--model"),
                    "eval": ("--pred", "--gt"), "drift": ("--pred", "--gt"),
                    "train": ("--data",)}[command]
        paths = {"--data": pipeline["data"], "--model": pipeline["ckpt"],
                 "--pred": pipeline["data"], "--gt": pipeline["data"]}
        argv = [command, "--out", str(tmp_path / "o"), *flags]
        for flag in required:
            argv += [flag, str(paths[flag])]
        assert run(*argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    # an inf encoder weight gives inf features, which stream and bench
    # refuse before any op runs; the other cases carry the inf into an op,
    # and numpy warns on the way to the refusal
    @pytest.mark.parametrize("weight, command", [
        pytest.param(weight, command, id=f"{weight}-{command}",
                     marks=pytest.mark.filterwarnings(
                         "ignore::RuntimeWarning")
                     if weight == "block1.w1" or command == "infer-batch"
                     else ())
        for weight in ("block1.w1", "encoder.weight")
        for command in ("stream", "infer-batch", "bench")])
    def test_non_finite_weight_is_an_error_not_a_nan_output(
            self, pipeline, tmp_path, capsys, command, weight):
        model, extra = load_checkpoint(pipeline["ckpt"])
        if weight == "block1.w1":
            model.blocks[1].w1.data[0, 0] = np.inf
        else:
            model.encoder.weight[0, 0] = np.inf
        ckpt = tmp_path / "inf.ckpt"
        save_checkpoint(model, ckpt, extra=extra)
        out = tmp_path / "out"
        argv = [command, "--out", str(out), "--model", str(ckpt)]
        argv += (["--frames", "8"] if command == "bench"
                 else ["--data", str(pipeline["data"])])
        assert run(*argv) == 1
        assert "error:" in capsys.readouterr().err
        for pfm in out.glob("*.pfm"):
            assert np.isfinite(read_pfm(pfm)).all()

    @pytest.mark.parametrize("command", ["stream", "infer-batch", "bench"])
    def test_session_flags_default_to_the_checkpoint(self, pipeline,
                                                     tmp_path, command):
        # the pipeline checkpoint was trained at c=4, below the default
        # table of 16
        out = tmp_path / "out"
        argv = [command, "--out", str(out), "--model", str(pipeline["ckpt"])]
        if command == "bench":
            argv += ["--frames", "8"]
        else:
            argv += ["--data", str(pipeline["data"])]
        assert run(*argv) == 0
        record = json.loads((out / "run_config.json").read_text())
        assert record["context"] == 4

    def test_stream_takes_cache_settings_from_the_checkpoint(
            self, pipeline, tmp_path, capsys):
        train = tmp_path / "train"
        assert run("train", "--data", str(pipeline["data"]), "--out",
                   str(train), "--steps", "1", "--context", "4",
                   "--caches", "2", "--precision", "fp16") == 0
        outs = {}
        for name, flags in (("default", ()),
                            ("explicit", ("--caches", "2",
                                          "--precision", "fp16"))):
            outs[name] = tmp_path / name
            assert run("stream", "--data", str(pipeline["data"]), "--out",
                       str(outs[name]), "--model", str(train / "model.ckpt"),
                       *flags) == 0
        record = json.loads((outs["default"] / "run_config.json").read_text())
        assert {k: record[k] for k in ("context", "caches", "precision")} == {
            "context": 4, "caches": 2, "precision": "fp16"}
        footprints = [l.split("cache bytes=")[1]
                      for l in capsys.readouterr().out.splitlines()
                      if "cache bytes=" in l]
        assert footprints[-2] == footprints[-1]
        names = (outs["default"] / "seq000.predlist").read_text().split()
        for n in names:
            np.testing.assert_array_equal(read_pfm(outs["default"] / n),
                                          read_pfm(outs["explicit"] / n))

    @pytest.mark.parametrize("fault", ["header_cut", "unknown_config_key"])
    def test_bad_checkpoint_header_is_usage_error(self, pipeline, tmp_path,
                                                  capsys, fault):
        raw = pipeline["ckpt"].read_bytes()
        if fault == "header_cut":
            raw = CHECKPOINT_MAGIC + b"\0"
        else:
            raw = raw.replace(b'"context"', b'"kontext"')
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(raw)
        assert run("stream", "--data", str(pipeline["data"]), "--out",
                   str(tmp_path / "out"), "--model", str(ckpt)) == 1
        assert "error:" in capsys.readouterr().err


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

    @pytest.mark.parametrize("command", [
        ("eval", "--align", "first"), ("eval", "--align", "globalall"),
        ("drift",)], ids=["eval-first", "eval-globalall", "drift"])
    @pytest.mark.parametrize("bad", ["nan-pixel", "mis-sized"])
    def test_bad_prediction_is_usage_error(self, pipeline, preds, tmp_path,
                                           capsys, command, bad):
        bad_dir = tmp_path / "bad"
        shutil.copytree(preds, bad_dir)
        name = (bad_dir / "seq000.predlist").read_text().split()[3]
        frame = read_pfm(bad_dir / name)
        if bad == "nan-pixel":
            frame[5, 7] = np.nan
        else:
            frame = frame[:, :-1]
        write_pfm(bad_dir / name, frame)
        out = tmp_path / "out"
        assert run(command[0], "--pred", str(bad_dir), "--gt",
                   str(pipeline["data"]), "--out", str(out),
                   *command[1:]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (out / f"{command[0]}.csv").exists()

    @pytest.mark.parametrize("command", [
        ("eval", "--align", "first"), ("eval", "--align", "globalall"),
        ("drift",)], ids=["eval-first", "eval-globalall", "drift"])
    def test_nan_ground_truth_is_usage_error(self, pipeline, preds, tmp_path,
                                             capsys, command):
        gt = tmp_path / "gt"
        shutil.copytree(pipeline["data"], gt)
        manifest = sorted(gt.glob("*.manifest"))[0]
        _, depth_name, valid_name = read_manifest(manifest).entries[3]
        depth = read_pfm(gt / depth_name)
        row, col = np.argwhere(read_pfm(gt / valid_name) > 0.5)[0]
        depth[row, col] = np.nan
        write_pfm(gt / depth_name, depth)
        out = tmp_path / "out"
        assert run(command[0], "--pred", str(preds), "--gt", str(gt),
                   "--out", str(out), *command[1:]) == 1
        assert "ground-truth depth" in capsys.readouterr().err
        assert not (out / f"{command[0]}.csv").exists()


class TestRefusedInput:
    @pytest.mark.parametrize("argv, fault, message", [
        (("train", "--steps", "1"), "no-frames", "lacks header key 'frames'"),
        (("stream",), "missing-frame", "missing_rgb.ppm"),
        (("infer-batch",), "missing-frame", "missing_rgb.ppm"),
        (("eval",), None, "missing predictions for seq000"),
        (("drift",), None, "missing predictions for seq000"),
        (("gen", "--velocity", "0.6", "--frames", "64", "--sequences", "3",
          "--seed", "0"), None, "camera passes through a plane"),
        (("gen", "--sequences", "0"), None, "--sequences must be >= 1"),
        (("gen", "--invalid-fraction", "1.5"), None, "outside [0, 1)"),
        (("bench", "--frames", "4"), None,
         "--frames 4 must exceed the context 16"),
        (("infer-batch", "--context", "5"), None,
         "context cannot exceed the model's position table"),
        (("stream", "--caches", "0"), None, "modulus must be >= 1"),
        (("bench", "--caches", "0"), None, "cache_modulus must be >= 1"),
        (("train", "--steps", "1", "--caches", "0"), None,
         "cache_modulus must be >= 1"),
        (("train", "--steps", "1", "--height", "0"), None,
         "--height must be >= 1"),
        (("gen", "--height", "0"), None, "--height must be >= 1"),
        (("gen", "--width", "-1"), None, "--width must be >= 1"),
    ], ids=["train-manifest-without-frames", "stream-missing-frame-file",
            "infer-batch-missing-frame-file", "eval-missing-predlist",
            "drift-missing-predlist", "gen-later-scene-through-plane",
            "gen-no-sequences", "gen-invalid-fraction-1.5",
            "bench-frames-within-context", "infer-batch-context-5",
            "stream-caches-0", "bench-caches-0", "train-caches-0",
            "train-height-0", "gen-height-0", "gen-width--1"])
    def test_refused_input_leaves_no_out(self, pipeline, tmp_path, capsys,
                                         argv, fault, message):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        manifest = data / "seq000.manifest"
        if fault == "no-frames":
            manifest.write_text("".join(
                line for line in manifest.read_text().splitlines(keepends=True)
                if not line.startswith("frames=")))
        elif fault == "missing-frame":
            # the first sequence is fine; the second lists a missing file
            (data / "seq001.manifest").write_text(manifest.read_text().replace(
                "seq000_00004_rgb.ppm", "missing_rgb.ppm"))
        inputs = {"train": ("--data", data),
                  "stream": ("--data", data, "--model", pipeline["ckpt"]),
                  "infer-batch": ("--data", data,
                                  "--model", pipeline["ckpt"]),
                  "eval": ("--pred", data, "--gt", data),
                  "drift": ("--pred", data, "--gt", data)}
        out = tmp_path / "out"
        assert run(*argv, *map(str, inputs.get(argv[0], ())),
                   "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0]
        assert not out.exists()


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

    @pytest.mark.parametrize("frames", ["0", "-1"])
    def test_no_frames_is_usage_error(self, tmp_path, capsys, frames):
        out = tmp_path / "bench"
        assert run("bench", "--out", str(out), "--frames", frames) == 1
        assert capsys.readouterr().err == "error: --frames must be >= 1\n"
        assert not out.exists()


class TestCheck:
    def test_check_passes(self, capsys):
        assert run("check", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out
        assert "self-test band 5 vs cache 4 must fail the gate" in out

    def test_check_fails_when_the_band_self_test_passes(self, monkeypatch,
                                                        capsys):
        # a gate with no tolerance passes every configuration, the widened
        # band included, and check must report that as a failure
        from depthstream import verify
        real = verify.streaming_equivalence_check

        def gate_that_cannot_fail(c, n, seed, band_override=None, tol=1e-5):
            return real(c, n, seed, band_override, tol=float("inf"))

        monkeypatch.setattr(verify, "streaming_equivalence_check",
                            gate_that_cannot_fail)
        assert run("check") == 2
        lines = capsys.readouterr().out.splitlines()
        self_test = [l for l in lines if l.startswith("self-test")]
        assert len(self_test) == 1 and self_test[0].endswith("FAIL")
        assert lines[-1] == "CHECK FAILURE"

    def test_check_failure_exit_code(self, monkeypatch, capsys):
        from depthstream import verify
        monkeypatch.setattr(verify, "run_all", lambda seed: False)
        assert run("check") == 2
        assert "CHECK FAILURE" in capsys.readouterr().out

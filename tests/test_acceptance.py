"""Release acceptance gate.

Thirteen numbered criteria covering streaming equivalence, causality,
alignment, losses, metrics, drift analysis, evaluation protocols,
precision modes, training, latency, and file formats. Each test prints a
single PASS/FAIL line (visible even under pytest capture) and then
asserts, so the gate reads as a checklist in the run log.

Pinned tolerances:
  equivalence 1e-5 | causality 1e-6 | alignment residual gap 1e-6
  loss fixtures 1e-6 | gradcheck rel err 1e-4 | drift ramp 10% relative
  fp16 delta1 shift 0.005 | fp16 inverse-depth gap 5e-4
  context effect >= 0.02 | training drop >= 30%
"""

import csv

import numpy as np
import pytest

from depthstream import align
from depthstream import tensor as T
from depthstream.align import (delta1, absrel, eval_first_frame,
                               eval_global, least_squares_align,
                               scale_drift_curve)
from depthstream.cache import CacheBank
from depthstream.cli import main as cli_main
from depthstream.data import (Primitive, SceneSpec, generate_sequence,
                              read_pfm, read_ppm, write_pfm, write_ppm)
from depthstream.losses import (LossWeights, TrainConfig, Trainer,
                                loss_sascon, loss_ssi_scene, loss_tgm,
                                loss_total, temporal_gradient_error)
from depthstream.model import DepthModel, ModelConfig
from depthstream.verify import (ALIGN_TOL, EQUIV_CONFIGS, EQUIV_TOL,
                                GRAD_TOL, alignment_oracle_check,
                                loss_gradient_check,
                                streaming_equivalence_check)

CAUSAL_TOL = 1e-6
FIXTURE_TOL = 1e-6
DRIFT_REL_TOL = 0.10
FP16_DELTA1_TOL = 0.005
FP16_INVDEPTH_TOL = 5e-4
TRAIN_DROP = 0.30
CONTEXT_EFFECT_MIN = 0.02


@pytest.fixture
def report(capsys):
    def _report(name: str, passed: bool, detail: str = ""):
        with capsys.disabled():
            status = "PASS" if passed else "FAIL"
            suffix = f" ({detail})" if detail else ""
            print(f"[{status}] criterion {name}{suffix}")
        assert passed, f"criterion {name} failed: {detail}"
    return _report


def scene_pair(seed: int, frames: int, size=(16, 16)):
    """A deterministic scene plus its inverse-depth ground truth."""
    spec = SceneSpec(seed=seed, forward_velocity=0.2, primitives=[
        Primitive("plane", depth=40.0),
        Primitive("sphere", center=(0.5, 0.2, 8.0), radius=2.0,
                  velocity=(0.01, 0.0, 0.0))])
    rgb, depth, valid = generate_sequence(spec, frames, size)
    return rgb, depth, valid


@pytest.fixture(scope="module")
def trained16():
    """A small model trained at context 16, with a held-out scene."""
    rgb, depth, valid = scene_pair(seed=5, frames=20)
    gt_inv = (1.0 / depth).astype(np.float32)
    model = DepthModel(ModelConfig(height=16, width=16, patch_size=4,
                                   encoder_channels=8, head_channels=8,
                                   num_motion_modules=2, context=16,
                                   seed=0))
    trainer = Trainer(model, [(rgb, gt_inv, valid)], LossWeights(),
                      TrainConfig(learning_rate=5e-2, steps=60, seed=1))
    trainer.run()
    held_rgb, held_depth, held_valid = scene_pair(seed=77, frames=24)
    return model, held_rgb, held_depth, held_valid


def stream_predictions(model, rgb, context, precision="fp32"):
    session = model.new_session(context=context, precision=precision)
    preds = [session.step_rgb(f) for f in rgb]
    return preds, session.memory_footprint()


def context_effect(model, rgb):
    """Mean over frames >= 1 of |stream(c=16) - stream(c=1)|: how far the
    cached past moves the output."""
    wide, _ = stream_predictions(model, rgb, 16)
    narrow, _ = stream_predictions(model, rgb, 1)
    return float(np.abs(np.stack(wide[1:]) - np.stack(narrow[1:])).mean())


def first_frame_delta1(preds, depth, valid):
    return eval_first_frame(preds, depth, valid).delta1


def eval_delta1(model, rgb, depth, valid, context):
    preds, _ = stream_predictions(model, rgb, context)
    return first_frame_delta1(preds, depth, valid)


class TestCriterion01StreamingEquivalence:
    def test_batch_equals_streaming_20_configs(self, report):
        assert len(EQUIV_CONFIGS) == 20
        assert len(set(EQUIV_CONFIGS)) == 20
        worst = 0.0
        for c, n in EQUIV_CONFIGS:
            res = streaming_equivalence_check(c, n, seed=c * 100 + n)
            worst = max(worst, res["max_abs_diff"])
            if not res["passed"]:
                report("01 streaming-equivalence", False,
                       f"c={c} n={n} diff={res['max_abs_diff']:.2e}")
        report("01 streaming-equivalence", worst < EQUIV_TOL,
               f"20 configs, worst |batch-stream|={worst:.2e} < {EQUIV_TOL}")


class TestCriterion02Causality:
    def test_future_frames_cannot_reach_the_past(self, report):
        cfg = ModelConfig(height=16, width=16, patch_size=4,
                          encoder_channels=8, head_channels=8,
                          num_motion_modules=2, context=4, seed=3)
        model = DepthModel(cfg)
        rng = np.random.default_rng(4)
        rgb = rng.random((8, 16, 16, 3)).astype(np.float32)
        base = model.forward_batch(rgb)
        worst = 0.0
        for k in range(1, 8):
            bumped = rgb.copy()
            bumped[k:] += 0.5
            out = model.forward_batch(np.clip(bumped, 0, 1))
            worst = max(worst, float(np.abs(out[:k] - base[:k]).max()))
        report("02 causality", worst < CAUSAL_TOL,
               f"max change to earlier frames {worst:.2e} < {CAUSAL_TOL}")


class TestCriterion03AlignmentOracle:
    def test_closed_form_matches_brute_force(self, report):
        res = alignment_oracle_check(trials=100, seed=0)
        rng = np.random.default_rng(1)
        exact_ok = True
        for _ in range(10):
            p = rng.normal(0, 1, 64)
            a, b = rng.uniform(0.5, 3.0), rng.uniform(-2, 2)
            fit = least_squares_align(p, a * p + b)
            exact_ok &= (abs(fit.scale - a) < ALIGN_TOL
                         and abs(fit.shift - b) < ALIGN_TOL)
        report("03 alignment-oracle", res["passed"] and exact_ok,
               f"100 instances, worst residual gap pooled "
               f"{res['pooled']['worst_gap']:.2e}, per frame "
               f"{res['per_frame']['worst_gap']:.2e}; "
               f"exact affine recovery to {ALIGN_TOL}")

    @pytest.mark.parametrize("broken", [("pooled", "per_frame"), ("pooled",),
                                        ("per_frame",)],
                             ids=["both", "pooled", "per_frame"])
    def test_wrong_shift_fails_the_oracle(self, monkeypatch, broken):
        # a shift 0.01 off in the shared solver must fail the oracle in
        # each case the fault reaches, and only there
        real = align.solve_scale_shift

        def shifted(products, m, axis=None):
            s, t, n = real(products, m, axis)
            case = "pooled" if axis is None else "per_frame"
            return s, T.add(t, 0.01) if case in broken else t, n

        monkeypatch.setattr(align, "solve_scale_shift", shifted)
        res = alignment_oracle_check(trials=1, seed=0)
        for case in ("pooled", "per_frame"):
            assert res[case]["passed"] == (case not in broken), res
        assert not res["passed"]


class TestCriterion04LossCorrectness:
    def test_fixtures_and_gradchecks(self, report):
        rng = np.random.default_rng(2)
        gt = rng.uniform(0.5, 2.0, (3, 4, 5)).astype(np.float32)
        masks = np.ones_like(gt, dtype=bool)
        corrupted = (1.7 * gt + 0.3).astype(np.float32)
        affine_zero = all(
            abs(fn(corrupted, gt, masks).item()) < FIXTURE_TOL
            for fn in (loss_ssi_scene, loss_tgm, loss_sascon))

        sas_gt = np.array([[[1.0, 2.0]], [[1.0, 2.0]]], dtype=np.float32)
        sas_pred = np.array([[[1.0, 2.0]], [[2.0, 4.0]]], dtype=np.float32)
        sas_m = np.ones_like(sas_gt, dtype=bool)
        sascon_ok = abs(loss_sascon(sas_pred, sas_gt, sas_m).item()
                        - 0.75) < FIXTURE_TOL

        tgm_aligned = np.array([[[1.0]], [[3.0]]], dtype=np.float32)
        tgm_gt = np.array([[[1.0]], [[2.0]]], dtype=np.float32)
        tgm_m = np.ones_like(tgm_gt, dtype=bool)
        tgm_ok = abs(temporal_gradient_error(tgm_aligned, tgm_gt, tgm_m)
                     .item() - 1.0) < FIXTURE_TOL

        worst_rel = 0.0
        for seed in range(10):
            res = loss_gradient_check(seed=1000 + seed)
            worst_rel = max(worst_rel, *res["reports"].values())
            if not res["passed"]:
                report("04 loss-correctness", False,
                       f"seed {seed} gradcheck rel errs {res['reports']}")
        report("04 loss-correctness",
               affine_zero and sascon_ok and tgm_ok
               and worst_rel < GRAD_TOL,
               f"affine-zero + fixtures (0.75, 1.0) exact; 30 gradchecks "
               f"worst rel err {worst_rel:.2e} < {GRAD_TOL}")


class TestCriterion05TwoTermCombination:
    def test_gamma_zero_is_bitwise_two_term(self, report):
        rng = np.random.default_rng(6)
        gt = rng.uniform(0.5, 2.0, (3, 4, 4)).astype(np.float32)
        masks = np.ones_like(gt, dtype=bool)
        pred = (1.3 * gt + rng.normal(0, 0.2, gt.shape)).astype(np.float32)
        two_term = T.add(T.mul(loss_ssi_scene(pred, gt, masks), 1.0),
                         T.mul(loss_tgm(pred, gt, masks), 1.0))
        total = loss_total(pred, gt, masks, LossWeights(1, 1, 0))
        same = total.item() == two_term.item()
        report("05 two-term-combination", same,
               f"gamma=0 total == alpha*SSI + beta*TGM bit-for-bit "
               f"({total.item():.6f})")


class TestCriterion06Metrics:
    def test_fixtures_and_fuzz(self, report):
        gt = np.array([4.0, 8.0])
        absrel_ok = abs(absrel(gt, np.array([5.0, 6.0])) - 0.25) < 1e-12
        delta_ok = abs(delta1(np.array([4.0, 4.0]),
                              np.array([4.0, 8.0])) - 0.5) < 1e-12
        perfect_ok = (absrel(gt, gt) == 0.0 and delta1(gt, gt) == 1.0)
        rng = np.random.default_rng(7)
        fuzz_ok = True
        for _ in range(200):
            g = rng.uniform(0.1, 80.0, 30)
            p = rng.normal(0, 20, 30)
            d = delta1(g, p)
            fuzz_ok &= 0.0 <= d <= 1.0
        report("06 metrics",
               absrel_ok and delta_ok and perfect_ok and fuzz_ok,
               "AbsRel fixture 0.25, delta1 fixture 0.5, perfect 0/1, "
               "delta1 in [0,1] on 200 fuzz cases")


class TestCriterion07ScaleDrift:
    def test_zero_curve_ramp_recovery_support(self, report):
        rng = np.random.default_rng(8)
        lengths = (6, 4, 3)
        flat_seqs, ramp_seqs = [], []
        for length in lengths:
            depth = rng.uniform(2.0, 10.0, (length, 5, 5))
            masks = np.ones((length, 5, 5), dtype=bool)
            # identical frames within a sequence make the per-frame fits
            # bitwise identical, so the affine curve is exactly zero
            depth[:] = depth[0]
            inv = 1.0 / depth
            flat_seqs.append((2.0 * inv + 0.1, depth, masks))
            ramp = (1.0 + 0.01 * np.arange(length))[:, None, None]
            ramp_seqs.append((inv / ramp, depth, masks))
        flat = scale_drift_curve(flat_seqs, window=4)
        zero_ok = np.all(flat.drift == 0.0) and np.all(flat.raw_drift == 0.0)
        ramp = scale_drift_curve(ramp_seqs, window=4)
        ramp_ok = all(
            abs(ramp.raw_drift[j] - 0.01 * j) <= DRIFT_REL_TOL * 0.01 * j
            for j in range(1, max(lengths)))
        support = [int(n) for n in flat.data_support]
        support_ok = support == [3, 3, 3, 2, 1, 1]
        report("07 scale-drift", zero_ok and ramp_ok and support_ok,
               "affine -> identically zero; 1%/frame ramp recovered within "
               f"{DRIFT_REL_TOL:.0%}; support {support}")


class TestCriterion08GlobalVsFirstFrame:
    def test_global_not_worse_under_drift(self, report):
        rng = np.random.default_rng(9)
        depth = rng.uniform(2.0, 10.0, (16, 6, 6))
        masks = np.ones((16, 6, 6), dtype=bool)
        inv = 1.0 / depth
        drifting = np.stack([inv[j] * (1.0 + 0.03 * j)
                             + rng.normal(0, 0.002, (6, 6))
                             for j in range(16)])
        first = eval_first_frame(drifting, depth, masks).absrel
        global_all = eval_global(drifting, depth, masks, horizon=None).absrel
        report("08 global-vs-first", global_all <= first,
               f"global AbsRel {global_all:.4f} <= first-frame "
               f"AbsRel {first:.4f} on a drifting prediction")


class TestCriterion09ContextAblation:
    def test_context_trend(self, report, trained16):
        model, rgb, depth, valid = trained16
        d1_16 = eval_delta1(model, rgb, depth, valid, context=16)
        d1_8 = eval_delta1(model, rgb, depth, valid, context=8)
        # hard assertion: at matching context, streaming equals the
        # banded batch pass
        feats = model.encoder.encode_sequence(rgb)
        batch = model.head_forward_batch(feats, context=16).data
        session = model.new_session(context=16)
        stream = np.stack([session.head_forward_stream(f) for f in feats])
        equiv = float(np.abs(batch - stream).max())
        trend = d1_8 <= d1_16 + 0.01
        report("09 context-ablation", equiv < EQUIV_TOL,
               f"matching-c equivalence {equiv:.2e} < {EQUIV_TOL}; "
               f"reported trend delta1(c=8)={d1_8:.3f} vs "
               f"delta1(c=16)={d1_16:.3f} "
               f"({'holds' if trend else 'does not hold'})")

    def test_context_reaches_the_output(self, report, trained16):
        # companion to the delta1 trend, which sits at a floor: the cached
        # past must move the output well above rounding
        model, rgb, _, _ = trained16
        effect = context_effect(model, rgb)
        report("09 context-effect", effect >= CONTEXT_EFFECT_MIN,
               f"mean |stream(c=16) - stream(c=1)| over frames >= 1 "
               f"{effect:.4f} >= {CONTEXT_EFFECT_MIN}")

    def test_current_frame_window_fails_the_companion(self, trained16,
                                                      monkeypatch):
        # a cache whose window holds only the current frame ignores the
        # past; the companion check must catch it
        model, rgb, _, _ = trained16
        real = CacheBank.window
        monkeypatch.setattr(CacheBank, "window",
                            lambda bank: real(bank)[:1])
        assert context_effect(model, rgb) < CONTEXT_EFFECT_MIN


class TestCriterion10PrecisionMode:
    def test_fp16_cache_accuracy_and_footprint(self, report, trained16):
        model, rgb, depth, valid = trained16
        p32, f32 = stream_predictions(model, rgb, 16, "fp32")
        p16, f16 = stream_predictions(model, rgb, 16, "fp16")
        shift = abs(first_frame_delta1(p32, depth, valid)
                    - first_frame_delta1(p16, depth, valid))
        # delta1 sits at a floor for both precisions, so the outputs are
        # also compared directly
        gap = float(np.abs(np.stack(p16) - np.stack(p32)).max())
        report("10 precision-mode",
               shift < FP16_DELTA1_TOL and gap < FP16_INVDEPTH_TOL
               and f16 * 2 == f32,
               f"|delta1 shift| {shift:.4f} < {FP16_DELTA1_TOL}; max "
               f"|fp16-fp32| inverse depth {gap:.2e} < {FP16_INVDEPTH_TOL}; "
               f"cache {f16} bytes = half of {f32}")


class TestCriterion11ToyTraining:
    def test_loss_drop_and_frozen_encoder(self, report):
        rgb, depth, valid = scene_pair(seed=5, frames=12)
        gt_inv = (1.0 / depth).astype(np.float32)
        model = DepthModel(ModelConfig(height=16, width=16, patch_size=4,
                                       encoder_channels=8, head_channels=8,
                                       num_motion_modules=2, context=4,
                                       seed=0))
        enc_w = model.encoder.weight.copy()
        enc_b = model.encoder.bias.copy()
        trainer = Trainer(model, [(rgb, gt_inv, valid)], LossWeights(),
                          TrainConfig(learning_rate=5e-2, steps=200, seed=1))
        log = trainer.run()
        losses = [r["loss"] for r in log]
        early = float(np.mean(losses[1:6]))
        late = float(np.mean(losses[-5:]))
        drop = 1.0 - late / early
        frozen = (np.array_equal(model.encoder.weight, enc_w)
                  and np.array_equal(model.encoder.bias, enc_b))
        report("11 toy-training", drop >= TRAIN_DROP and frozen,
               f"200 steps, loss drop {drop:.1%} >= {TRAIN_DROP:.0%} vs "
               f"step-5 average; encoder bit-identical")


class TestCriterion12Performance:
    def test_streaming_beats_batch_recompute(self, report, tmp_path):
        out = tmp_path / "bench"
        code = cli_main(["bench", "--out", str(out), "--frames", "128",
                         "--context", "16", "--seed", "0"])
        rows = dict(list(csv.reader((out / "bench.csv").open()))[1:])
        stream = float(rows["stream_median_ms"])
        batch = float(rows["batch_recompute_ms_per_frame"])
        report("12 performance", code == 0 and stream < batch,
               f"N=128 >= 4c: stream median {stream:.3f} ms < batch "
               f"recompute {batch:.3f} ms/frame; CSV emitted")


class TestCriterion13FileFormats:
    def test_byte_level_goldens_roundtrip(self, report, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 4)
        pfm = tmp_path / "g.pfm"
        write_pfm(pfm, data)
        raw = pfm.read_bytes()
        header = b"Pf\n4 2\n-1.0\n"
        payload = np.concatenate([data[1], data[0]]).astype("<f4").tobytes()
        pfm_ok = (raw == header + payload
                  and np.array_equal(read_pfm(pfm), data))
        ppm = tmp_path / "g.ppm"
        write_ppm(ppm, np.full((1, 1, 3), 255, dtype=np.uint8))
        ppm_ok = (ppm.read_bytes() == b"P6\n1 1\n255\n\xff\xff\xff"
                  and np.array_equal(read_ppm(ppm),
                                     np.full((1, 1, 3), 255,
                                             dtype=np.uint8)))
        report("13 file-formats", pfm_ok and ppm_ok,
               "PFM and PPM byte-level goldens round-trip exactly")


class TestMutationGuard:
    """Not a numbered criterion: the equivalence check must be able to
    fail, otherwise criterion 1 proves nothing."""

    def test_widened_band_breaks_equivalence(self):
        res = streaming_equivalence_check(4, 9, seed=0, band_override=5)
        assert not res["passed"]

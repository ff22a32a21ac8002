import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthstream import losses
from depthstream import tensor as T
from depthstream.align import DegenerateAlignment
from depthstream.losses import (_MAX_RECT_FRACTION, ABLATION_ROWS,
                                AugmentConfig, LossWeights,
                                TrainConfig, Trainer, ablation_suite,
                                frame_augment, loss_sascon, loss_ssi_scene,
                                loss_tgm, loss_total, temporal_gradient_error,
                                train_step)
from depthstream.model import DepthModel, ModelConfig
from depthstream.tensor import Tape, Tensor, gradcheck


def affine_instance(seed=0, frames=3, shape=(4, 5), a=1.8, b=0.4):
    rng = np.random.default_rng(seed)
    gt = rng.uniform(0.5, 2.0, (frames, *shape)).astype(np.float32)
    pred = (a * gt + b).astype(np.float32)
    masks = np.ones((frames, *shape), dtype=bool)
    return pred, gt, masks


class TestSsiScene:
    def test_global_affine_is_zero(self):
        pred, gt, masks = affine_instance()
        assert loss_ssi_scene(pred, gt, masks).item() == pytest.approx(
            0.0, abs=1e-6)

    def test_two_point_exact_fit(self):
        pred = np.array([[[1.0]], [[2.0]]], dtype=np.float32)
        gt = np.array([[[1.0]], [[3.0]]], dtype=np.float32)
        masks = np.ones_like(gt, dtype=bool)
        assert loss_ssi_scene(pred, gt, masks).item() == pytest.approx(
            0.0, abs=1e-6)

    def test_nonzero_on_inconsistent_prediction(self):
        pred, gt, masks = affine_instance(seed=1)
        pred = pred + np.random.default_rng(2).normal(
            0, 0.3, pred.shape).astype(np.float32)
        assert loss_ssi_scene(pred, gt, masks).item() > 0.01

    def test_degenerate_fit_raises(self):
        gt = np.random.default_rng(3).uniform(1, 2, (2, 3, 3))
        pred = np.ones_like(gt, dtype=np.float32)
        with pytest.raises(DegenerateAlignment):
            loss_ssi_scene(pred, gt.astype(np.float32),
                           np.ones_like(gt, dtype=bool))

    def test_gradcheck(self):
        pred, gt, masks = affine_instance(seed=4, frames=2, shape=(3, 3))
        noisy = pred + np.random.default_rng(5).normal(
            0, 0.2, pred.shape).astype(np.float32)
        param = Tensor(noisy, requires_grad=True)
        rep = gradcheck(lambda: loss_ssi_scene(param, gt, masks), [param])
        assert rep["passed"], rep


class TestTgm:
    def test_affine_is_zero(self):
        pred, gt, masks = affine_instance(seed=6)
        assert loss_tgm(pred, gt, masks).item() == pytest.approx(0, abs=1e-6)

    def test_hand_fixture(self):
        # already-aligned single-pixel pair: |(3-1) - (2-1)| = 1
        aligned = np.array([[[1.0]], [[3.0]]], dtype=np.float32)
        gt = np.array([[[1.0]], [[2.0]]], dtype=np.float32)
        masks = np.ones_like(gt, dtype=bool)
        assert temporal_gradient_error(aligned, gt, masks).item() == \
            pytest.approx(1.0, abs=1e-6)
        # loss_tgm aligns first: the pooled fit maps [1, 3] onto [1, 2]
        assert loss_tgm(aligned, gt, masks).item() == \
            pytest.approx(0.0, abs=1e-6)

    def test_constant_offset_invariance(self):
        _, gt, masks = affine_instance(seed=7)
        rng = np.random.default_rng(8)
        aligned = gt + rng.normal(0, 0.1, gt.shape).astype(np.float32)
        shifted = aligned + 0.7  # same shift on every frame
        a = temporal_gradient_error(aligned, gt, masks).item()
        b = temporal_gradient_error(shifted, gt, masks).item()
        assert a == pytest.approx(b, abs=1e-6)

    def test_single_frame_rejected(self):
        pred, gt, masks = affine_instance(frames=1)
        with pytest.raises(ValueError):
            loss_tgm(pred, gt, masks)

    def test_gradcheck(self):
        pred, gt, masks = affine_instance(seed=9, frames=2, shape=(3, 3))
        noisy = pred + np.random.default_rng(10).normal(
            0, 0.2, pred.shape).astype(np.float32)
        param = Tensor(noisy, requires_grad=True)
        rep = gradcheck(lambda: loss_tgm(param, gt, masks), [param])
        assert rep["passed"], rep


class TestSascon:
    def test_affine_is_zero(self):
        pred, gt, masks = affine_instance(seed=11)
        assert loss_sascon(pred, gt, masks).item() == pytest.approx(
            0.0, abs=1e-6)

    def test_hand_fixture_two_frames(self):
        # frame 0 perfect, frame 1 scaled x2: first-frame alignment keeps
        # [2, 4], per-frame alignment restores [1, 2]; mean gap 1.5,
        # averaged over the two frames -> 0.75
        gt = np.array([[[1.0, 2.0]], [[1.0, 2.0]]], dtype=np.float32)
        pred = np.array([[[1.0, 2.0]], [[2.0, 4.0]]], dtype=np.float32)
        masks = np.ones_like(gt, dtype=bool)
        assert loss_sascon(pred, gt, masks).item() == pytest.approx(
            0.75, abs=1e-6)

    def test_global_affine_invariance(self):
        pred, gt, masks = affine_instance(seed=12)
        rng = np.random.default_rng(13)
        pred = pred + rng.normal(0, 0.1, pred.shape).astype(np.float32)
        base = loss_sascon(pred, gt, masks).item()
        mapped = (2.5 * pred - 0.7).astype(np.float32)
        # both alignments absorb one global affine map exactly, up to the
        # linear rescaling of the aligned-space gap
        assert loss_sascon(mapped, gt, masks).item() == pytest.approx(
            base, abs=1e-5)

    @pytest.mark.parametrize("frames,invalid", [(2, 0), (4, 2)],
                             ids=["all_valid", "partly_masked"])
    def test_gradcheck(self, frames, invalid):
        pred, gt, _ = affine_instance(seed=14, frames=frames, shape=(3, 3))
        masks = uneven_masks(frames, (3, 3), invalid, seed=14)
        noisy = pred + np.random.default_rng(15).normal(
            0, 0.2, pred.shape).astype(np.float32)
        param = Tensor(noisy, requires_grad=True)
        rep = gradcheck(lambda: loss_sascon(param, gt, masks), [param])
        assert rep["passed"], rep

    @pytest.mark.parametrize("frames", [2, 5, 17])
    def test_matches_float64_per_frame_reference(self, frames):
        rng = np.random.default_rng(frames)
        gt = rng.uniform(0.5, 2.0, (frames, 6, 7))
        pred = (gt * rng.uniform(0.5, 2.0, (frames, 1, 1))
                + rng.normal(0, 0.2, gt.shape))
        masks = uneven_masks(frames, (6, 7), 1, seed=frames)
        assert len({int(m.sum()) for m in masks}) == frames
        got = loss_sascon(pred.astype(np.float32), gt.astype(np.float32),
                          masks).item()
        assert got == pytest.approx(sascon_reference(pred, gt, masks),
                                    rel=1e-5)

    @pytest.mark.parametrize("flaw", ["one_valid_pixel", "constant_frame"])
    def test_degenerate_later_frame_raises(self, flaw):
        pred, gt, masks = affine_instance(seed=16, frames=4)
        if flaw == "one_valid_pixel":
            masks[2] = False
            masks[2, 0, 0] = True
        else:
            pred[2] = 0.5
        with pytest.raises(DegenerateAlignment):
            loss_sascon(pred, gt, masks)


def uneven_masks(frames, shape, invalid_step, seed):
    """Masks whose frame i has invalid_step * i invalid pixels."""
    rng = np.random.default_rng(seed)
    masks = np.ones((frames, *shape), dtype=bool)
    for i, m in enumerate(masks.reshape(frames, -1)):
        m[rng.permutation(m.size)[:invalid_step * i]] = False
    return masks


def sascon_reference(pred, gt, masks):
    """float64 loop: per frame, the mean over valid pixels of |frame
    aligned by frame 0's fit - frame aligned by its own fit|."""
    def fit(i):
        p, g = pred[i][masks[i]], gt[i][masks[i]]
        design = np.stack([p, np.ones_like(p)], axis=1)
        return np.linalg.lstsq(design, g, rcond=None)[0]

    s0, t0 = fit(0)
    gaps = []
    for i in range(len(pred)):
        s, t = fit(i)
        p = pred[i][masks[i]]
        gaps.append(np.abs((p * s0 + t0) - (p * s + t)).mean())
    return float(np.mean(gaps))


class TestTotalLoss:
    def test_perfect_prediction_zero(self):
        pred, gt, masks = affine_instance(seed=16, a=1.0, b=0.0)
        assert loss_total(pred, gt, masks).item() == pytest.approx(
            0.0, abs=1e-6)

    def test_alpha_only_equals_ssi(self):
        pred, gt, masks = affine_instance(seed=17)
        pred = pred + np.random.default_rng(18).normal(
            0, 0.2, pred.shape).astype(np.float32)
        total = loss_total(pred, gt, masks, LossWeights(1, 0, 0)).item()
        assert total == pytest.approx(loss_ssi_scene(pred, gt, masks).item())

    def test_linearity(self):
        pred, gt, masks = affine_instance(seed=19)
        pred = pred + np.random.default_rng(20).normal(
            0, 0.2, pred.shape).astype(np.float32)
        w = LossWeights(0.5, 2.0, 3.0)
        a = loss_ssi_scene(pred, gt, masks).item()
        b = loss_tgm(pred, gt, masks).item()
        c = loss_sascon(pred, gt, masks).item()
        assert loss_total(pred, gt, masks, w).item() == pytest.approx(
            0.5 * a + 2.0 * b + 3.0 * c, rel=1e-5)

    @pytest.mark.parametrize("weights", [LossWeights(1, 1, 0),
                                         LossWeights(1, 1, 1)],
                             ids=["gamma_zero", "all_three"])
    def test_total_is_ordered_sum_of_terms_bitwise(self, weights):
        pred, gt, masks = affine_instance(seed=21)
        pred = pred + np.random.default_rng(22).normal(
            0, 0.2, pred.shape).astype(np.float32)
        masks[1:, 0, :2] = False
        expected = T.add(T.mul(loss_ssi_scene(pred, gt, masks), 1.0),
                         T.mul(loss_tgm(pred, gt, masks), 1.0))
        if weights.gamma:
            expected = T.add(expected,
                             T.mul(loss_sascon(pred, gt, masks), 1.0))
        assert loss_total(pred, gt, masks, weights).item() == expected.item()

    def test_gradient_is_sum_of_term_gradients(self):
        pred, gt, _ = affine_instance(seed=24, frames=5, shape=(6, 7))
        masks = uneven_masks(5, (6, 7), 3, seed=24)
        pred = pred + np.random.default_rng(25).normal(
            0, 0.2, pred.shape).astype(np.float32)

        def grad(fn):
            # float64 operands, so every op runs in float64
            param = Tensor(pred.astype(np.float64), requires_grad=True)
            with Tape() as tape:
                tape.backward(fn(param, gt, masks))
            return param.grad

        total = grad(loss_total)
        terms = sum(grad(fn) for fn in (loss_ssi_scene, loss_tgm, loss_sascon))
        assert total.dtype == np.float64
        assert np.abs(total - terms).max() <= 1e-12 * np.abs(terms).max()

    def test_full_resolution_ops_recorded_once(self):
        # each fit's products pred*m, pred^2*m and pred*gt*m are built once
        # and SSI and TGM read one aligned prediction: 3 products, 2 for the
        # alignment, 1 for SSI's error and 2 for SASCon's gap; the masked
        # L1 sums are one scalar op each
        pred, gt, masks = affine_instance(seed=26, frames=6)
        masks[1:, 0, 0] = False
        param = Tensor(pred, requires_grad=True)
        with Tape() as tape:
            loss_total(param, gt, masks)
        full = [out for out, _, _ in tape._nodes if out.shape == pred.shape]
        assert len(full) == 8

    def test_tape_size_does_not_grow_with_frames(self):
        sizes = []
        for frames in (4, 32):
            pred, gt, masks = affine_instance(seed=23, frames=frames)
            masks[1:, 0, 0] = False
            param = Tensor(pred, requires_grad=True)
            with Tape() as tape:
                loss_total(param, gt, masks)
            sizes.append(len(tape))
        assert sizes[0] == sizes[1]


# sqrt(-ln(0.005) / 2): the two-sample KS statistic's 1% critical value
# is this times sqrt((n + m) / (n * m))
KS_CRITICAL_1PCT = 1.628


def ks_statistic(a, b):
    """Largest gap between the empirical CDFs of two samples."""
    grid = np.union1d(a, b)
    return np.abs(np.searchsorted(np.sort(a), grid, side="right") / a.size
                  - np.searchsorted(np.sort(b), grid, side="right")
                  / b.size).max()


def reference_frame_augment(rgb_seq, max_fraction, rng):
    """frame_augment as one loop over frames and rectangles, one scalar
    draw at a time: the law the bulk draw must keep."""
    out = np.array(rgb_seq, copy=True)
    n, h, w = out.shape[:3]
    total = h * w
    budget_px = int(max_fraction * total)
    max_area = max(1, int(_MAX_RECT_FRACTION * total))
    rh_end = min(max(2, int(np.sqrt(max_area)) + 1), h + 1)
    for f in range(n):
        target = rng.uniform(0.0, max_fraction)
        mask = np.zeros((h, w), dtype=bool)
        while mask.sum() < target * total:
            rh = rng.integers(1, rh_end)
            rw = rng.integers(1, min(max(2, max_area // rh + 1), w + 1))
            y = rng.integers(0, h - rh + 1)
            x = rng.integers(0, w - rw + 1)
            new = mask.copy()
            new[y:y + rh, x:x + rw] = True
            if new.sum() > budget_px:
                break
            mask = new
        out[f][mask] = 0.0
    return out


class TestFrameAugment:
    def test_disabled_is_identity(self):
        # a copy, and no draw from the generator
        rgb = np.random.default_rng(23).random((4, 16, 16, 3))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        out = frame_augment(rgb, AugmentConfig(enabled=False), rng)
        assert out is not rgb
        np.testing.assert_array_equal(out, rgb)
        assert rng.bit_generator.state == state

    def test_zeroed_pixels_are_zero_in_all_channels(self):
        rgb = np.random.default_rng(24).random((4, 16, 16, 3)) + 0.1
        out = frame_augment(rgb, AugmentConfig(), np.random.default_rng(1))
        changed = (out != rgb).any(axis=-1)
        assert (out[changed] == 0.0).all()

    def test_fraction_bounds_and_mean(self):
        rng = np.random.default_rng(25)
        rgb = np.ones((1000, 20, 20, 3))
        out = frame_augment(rgb, AugmentConfig(), rng)
        fractions = (out == 0).all(axis=-1).mean(axis=(1, 2))
        assert (fractions <= 0.4 + 1e-9).all()
        assert (fractions >= 0.0).all()
        assert abs(fractions.mean() - 0.2) < 0.02

    def test_depth_targets_untouched_by_construction(self):
        # augmentation only sees rgb; shape check documents the contract
        rgb = np.random.default_rng(26).random((2, 8, 8, 3))
        out = frame_augment(rgb, AugmentConfig(), np.random.default_rng(2))
        assert out.shape == rgb.shape

    @settings(max_examples=30, deadline=None)
    @given(size=st.integers(16, 128),
           max_fraction=st.floats(0.0, 1.0, exclude_min=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_any_frame_size_stays_within_budget(self, size, max_fraction,
                                                seed):
        # above 48 px an uncapped rectangle side can exceed the frame
        rgb = np.random.default_rng(seed).uniform(
            0.1, 1.0, (2, size, size, 3)).astype(np.float32)
        before = rgb.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(losses, "_MAX_FRACTION", max_fraction)
            out = frame_augment(rgb, AugmentConfig(),
                                np.random.default_rng(seed))
        np.testing.assert_array_equal(rgb, before)
        zeroed = (out == 0).all(axis=-1)
        assert (zeroed.sum(axis=(1, 2))
                <= int(max_fraction * size * size)).all()
        np.testing.assert_array_equal(out[~zeroed], rgb[~zeroed])

    def test_fixed_seed_output_is_pinned(self):
        # sha256 of the 32x32 output of the bulk draw (rounds of
        # _RECT_CHUNK rectangles per frame); a change to the order or the
        # number of draws changes it. The law is checked separately below.
        rgb = np.random.default_rng(1).random((4, 32, 32, 3)).astype(
            np.float32)
        out = frame_augment(rgb, AugmentConfig(), np.random.default_rng(0))
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "c27cdcf4b9494811793ee7cfc5f6fd5a"
            "3778dcd25022bb9a47052552b307ea13")

    def test_64_frame_clip_output_is_pinned(self):
        # 64 frames at 32x32 take two rounds of draws
        rgb = np.random.default_rng(3).random((64, 32, 32, 3)).astype(
            np.float32)
        out = frame_augment(rgb, AugmentConfig(), np.random.default_rng(4))
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "d73a042d54baa276e62b26694f9723a8"
            "c040de9fc9de5e41a8782f49a41577e8")

    def test_one_channel_uint8_output_is_pinned(self, monkeypatch):
        monkeypatch.setattr(losses, "_MAX_FRACTION", 0.9)
        rgb = np.random.default_rng(5).integers(
            1, 256, (16, 24, 40, 1)).astype(np.uint8)
        out = frame_augment(rgb, AugmentConfig(), np.random.default_rng(6))
        assert out.dtype == np.uint8
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "952c8d18db8597f8d616797132ec39b7"
            "88dbb9d0044a70f0eecafb330321c5c0")

    @pytest.mark.parametrize("size,max_fraction,frames",
                             [(32, 0.4, 10000), (64, 1.0, 1000)])
    def test_same_law_as_reference_loop(self, size, max_fraction, frames,
                                        monkeypatch):
        # per-frame coverage of the bulk draw against the one-rectangle-
        # at-a-time loop, from fixed seeds (KS 0.009 and 0.031 here). At
        # 32x32 a copy that drops the rectangle reaching the target reads
        # KS 0.043 > 0.023 and a mean 6.9 standard errors low; one that
        # keeps the rectangle crossing the budget covers 426 > 409 pixels
        monkeypatch.setattr(losses, "_MAX_FRACTION", max_fraction)
        rgb = np.ones((frames, size, size, 1), dtype=np.uint8)
        rng = np.random.default_rng(31)
        new = np.concatenate([frame_augment(part, AugmentConfig(), rng)
                              for part in np.split(rgb, frames // 500)])
        ref = reference_frame_augment(rgb, max_fraction,
                                      np.random.default_rng(30))
        ref, new = ((out == 0)[..., 0].sum(axis=(1, 2)) for out in (ref, new))
        budget_px = int(max_fraction * size * size)
        assert ref.max() <= budget_px and new.max() <= budget_px
        assert ks_statistic(ref, new) < KS_CRITICAL_1PCT * np.sqrt(
            2 / frames)
        se = np.sqrt((ref.var(ddof=1) + new.var(ddof=1)) / frames)
        assert abs(ref.mean() - new.mean()) < 4 * se

    def test_trainer_augments_64px_clips_leaving_depth_alone(self):
        rng = np.random.default_rng(27)
        gt = rng.uniform(0.2, 1.0, (4, 64, 64)).astype(np.float32)
        sequences = [(rng.random((4, 64, 64, 3)).astype(np.float32),
                      gt.copy(), np.ones((4, 64, 64), dtype=bool))]
        model = DepthModel(ModelConfig(height=64, width=64, patch_size=8,
                                       encoder_channels=6, head_channels=8,
                                       num_motion_modules=1, context=4))
        trainer = Trainer(model, sequences, LossWeights(),
                          TrainConfig(steps=3, seed=0), AugmentConfig())
        trainer.run()
        assert len(trainer.log) == 3
        np.testing.assert_array_equal(sequences[0][1], gt)


def tiny_model():
    return DepthModel(ModelConfig(height=8, width=8, patch_size=4,
                                  encoder_channels=6, head_channels=8,
                                  num_motion_modules=1, context=4, seed=0))


def tiny_batch(model, seed=0, frames=3):
    rng = np.random.default_rng(seed)
    rgb = rng.random((frames, 8, 8, 3)).astype(np.float32)
    feats = model.encoder.encode_sequence(rgb)
    gt = rng.uniform(0.2, 1.0, (frames, 8, 8)).astype(np.float32)
    masks = np.ones((frames, 8, 8), dtype=bool)
    return [(feats, gt, masks)]


@pytest.fixture
def kept_tapes(monkeypatch):
    """(tape, leaf gradients) for every tape a backward runs on, kept
    before train_step or gradcheck clears the gradients."""
    kept = []

    class KeptTape(Tape):
        def backward(self, loss):
            super().backward(loss)
            kept.append((self, [t.grad for _, inputs, _ in self._nodes
                                for t in inputs if t.grad is not None]))

    monkeypatch.setattr("depthstream.losses.Tape", KeptTape)
    monkeypatch.setattr(T, "Tape", KeptTape)
    return kept


class TestPrecision:
    """Ops run in their operands' precision: float32 in training, float64
    under gradcheck, which hands them float64 parameters."""

    def test_train_step_runs_in_float32(self, kept_tapes):
        model = tiny_model()
        train_step(model, tiny_batch(model), LossWeights(), 1e-3)
        [(tape, grads)] = kept_tapes
        assert {out.data.dtype for out, _, _ in tape._nodes} == {
            np.dtype(np.float32)}
        assert grads and {g.dtype for g in grads} == {np.dtype(np.float32)}
        assert {p.data.dtype for _, p in model.head_parameters()} == {
            np.dtype(np.float32)}

    def test_gradcheck_runs_in_float64(self, kept_tapes):
        model = DepthModel(ModelConfig(height=4, width=4, patch_size=2,
                                       encoder_channels=2, head_channels=2,
                                       num_motion_modules=1, context=2))
        rng = np.random.default_rng(0)
        feats = model.encoder.encode_sequence(
            rng.random((3, 4, 4, 3)).astype(np.float32))
        gt = rng.uniform(0.2, 1.0, (3, 4, 4)).astype(np.float32)
        masks = np.ones(gt.shape, dtype=bool)
        params = [p for _, p in model.head_parameters()]
        report = gradcheck(lambda: loss_total(
            model.head_forward_batch(feats), gt, masks), params)
        assert report["passed"]
        [(tape, grads)] = kept_tapes
        assert {out.data.dtype for out, _, _ in tape._nodes} == {
            np.dtype(np.float64)}
        assert grads and {g.dtype for g in grads} == {np.dtype(np.float64)}
        # the parameters get their float32 arrays back
        assert {p.data.dtype for p in params} == {np.dtype(np.float32)}


class TestTrainStep:
    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
    def test_non_finite_learning_rate_refused(self, lr):
        with pytest.raises(ValueError, match="non-finite learning rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("lr", [-5.0, -1e-12])
    def test_negative_learning_rate_refused(self, lr):
        # 0 is a legitimate no-op (test_zero_lr_keeps_parameters); below
        # it a step would climb the loss
        with pytest.raises(ValueError, match="negative learning rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("weights", [(np.nan, 1, 1), (1, np.inf, 1),
                                         (1, 1, -np.inf)])
    def test_non_finite_loss_weight_refused(self, weights):
        with pytest.raises(ValueError, match="non-finite loss weight"):
            LossWeights(*weights)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -1e-12])
    def test_bad_rate_refused_before_the_step(self, lr):
        model = tiny_model()
        before = [t.data.copy() for _, t in model.head_parameters()]
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            train_step(model, tiny_batch(model), LossWeights(), lr)
        for (_, t), b in zip(model.head_parameters(), before):
            np.testing.assert_array_equal(t.data, b)

    def test_zero_lr_keeps_parameters(self):
        model = tiny_model()
        before = [t.data.copy() for _, t in model.head_parameters()]
        train_step(model, tiny_batch(model), LossWeights(), 0.0)
        for (_, t), b in zip(model.head_parameters(), before):
            np.testing.assert_array_equal(t.data, b)

    def test_encoder_frozen(self):
        model = tiny_model()
        w = model.encoder.weight.copy()
        b = model.encoder.bias.copy()
        for step in range(5):
            train_step(model, tiny_batch(model, seed=step), LossWeights(),
                       1e-2, step=step)
        np.testing.assert_array_equal(model.encoder.weight, w)
        np.testing.assert_array_equal(model.encoder.bias, b)

    def test_parameters_move_with_positive_lr(self):
        model = tiny_model()
        before = [t.data.copy() for _, t in model.head_parameters()]
        train_step(model, tiny_batch(model), LossWeights(), 1e-2)
        moved = any(np.any(t.data != b)
                    for (_, t), b in zip(model.head_parameters(), before))
        assert moved

    @pytest.mark.parametrize("weights", [LossWeights(1, 1, 1),
                                         LossWeights(1, 0, 1)])
    def test_logged_loss_is_loss_total_bitwise(self, weights):
        model = tiny_model()
        batch = tiny_batch(model, seed=4, frames=4)
        feats, gt, masks = batch[0]
        expected = loss_total(model.head_forward_batch(feats), gt, masks,
                              weights).item()
        rec = train_step(model, batch, weights, 0.0)
        assert rec["loss"] == expected
        assert (rec["tgm"] == 0.0) == (weights.beta == 0)

    def test_log_record_fields(self):
        model = tiny_model()
        rec = train_step(model, tiny_batch(model), LossWeights(), 1e-3,
                         step=1)
        assert set(rec) == {"step", "lr", "loss", "ssi", "tgm", "sascon"}


class TestTrainer:
    def test_loss_decreases_on_fixed_scene(self):
        from depthstream.data import Primitive, SceneSpec, generate_sequence
        spec = SceneSpec(seed=5, forward_velocity=0.2, primitives=[
            Primitive("plane", depth=40.0),
            Primitive("sphere", center=(0.5, 0.2, 8.0), radius=2.0,
                      velocity=(0.01, 0.0, 0.0))])
        rgb, depth, masks = generate_sequence(spec, 12, (16, 16))
        gt_inv = (1.0 / depth).astype(np.float32)
        model = DepthModel(ModelConfig(height=16, width=16, patch_size=4,
                                       encoder_channels=8, head_channels=8,
                                       num_motion_modules=2, context=4,
                                       seed=0))
        cfg = TrainConfig(learning_rate=5e-2, steps=200, seed=1)
        trainer = Trainer(model, [(rgb, gt_inv, masks)], LossWeights(), cfg)
        log = trainer.run()
        early = np.mean([r["loss"] for r in log[1:6]])
        late = np.mean([r["loss"] for r in log[-5:]])
        assert late < 0.7 * early

    @staticmethod
    def sequences():
        return [(np.random.default_rng(31).random((4, 8, 8, 3))
                 .astype(np.float32),
                 np.full((4, 8, 8), 0.5, dtype=np.float32)
                 + np.random.default_rng(32).uniform(
                     0, 0.3, (4, 8, 8)).astype(np.float32),
                 np.ones((4, 8, 8), dtype=bool))]

    def test_each_run_anneals_over_its_own_steps(self):
        # two run() calls restart the schedule; one run never raises it
        cfg = TrainConfig(steps=2, learning_rate=1e-2, seed=2)
        twice = Trainer(tiny_model(), self.sequences(), LossWeights(), cfg)
        twice.run()
        lr = [r["lr"] for r in twice.run()]
        assert lr == [0.01, 0.005, 0.01, 0.005]
        once = Trainer(tiny_model(), self.sequences(), LossWeights(), cfg)
        lr = [r["lr"] for r in once.run(4)]
        assert lr[0] == 0.01 and lr == sorted(lr, reverse=True)
        assert once.run(1)[-1]["lr"] == 0.01

    def test_log_csv_schema(self, tmp_path):
        model = tiny_model()
        trainer = Trainer(model, self.sequences(), LossWeights(),
                          TrainConfig(steps=3, seed=2))
        trainer.run()
        path = tmp_path / "log.csv"
        trainer.write_log(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss,ssi,tgm,sascon,lr"
        steps = [int(l.split(",")[0]) for l in lines[1:]]
        assert steps == sorted(steps)


class TestAblationSuite:
    def test_rows_and_determinism(self):
        rng = np.random.default_rng(33)
        rgb = rng.random((4, 8, 8, 3)).astype(np.float32)
        depth = rng.uniform(2.0, 10.0, (4, 8, 8)).astype(np.float32)
        gt_inv = (1.0 / depth).astype(np.float32)
        masks = np.ones((4, 8, 8), dtype=bool)
        train_seqs = [(rgb, gt_inv, masks)]
        eval_pairs = [(rgb, depth, masks)]
        cfg = TrainConfig(learning_rate=1e-3, steps=3, seed=3)
        rows1 = ablation_suite(tiny_model, train_seqs, eval_pairs, cfg)
        rows2 = ablation_suite(tiny_model, train_seqs, eval_pairs, cfg)
        assert [r["config"] for r in rows1] == [name for name, _, _ in
                                                ABLATION_ROWS]
        assert rows1 == rows2

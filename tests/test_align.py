import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthstream.align import (AffineAlign, DegenerateAlignment,
                               DepthSequence, absrel, apply_align, delta1,
                               eval_first_frame, eval_global,
                               invert_disparity, least_squares_align,
                               scale_drift_curve)
from depthstream.verify import brute_force_align


class TestLeastSquaresAlign:
    def test_exact_affine_fit(self):
        a = least_squares_align([1, 2, 3], [3, 5, 7])
        assert a.scale == pytest.approx(2.0)
        assert a.shift == pytest.approx(1.0)
        assert not a.degenerate

    def test_negative_scale_allowed(self):
        a = least_squares_align([0, 1], [1, 0])
        assert a.scale == pytest.approx(-1.0)
        assert a.shift == pytest.approx(1.0)

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.normal(0, 1, 50)
            g = 1.7 * p + 0.3 + rng.normal(0, 0.2, 50)
            closed = least_squares_align(p, g)
            brute = brute_force_align(p, g)

            def residual(al):
                r = al.scale * p + al.shift - g
                return r @ r

            assert residual(closed) <= residual(brute) + 1e-6

    def test_too_few_pixels(self):
        with pytest.raises(DegenerateAlignment):
            least_squares_align([1.0], [2.0])

    def test_degenerate_constant_prediction(self):
        a = least_squares_align([2, 2, 2], [1, 3, 5])
        assert a.degenerate
        assert a.scale == 1.0
        assert a.shift == pytest.approx(1.0)  # mean(gt) - mean(pred)

    def test_masked_fit(self):
        pred = np.array([1.0, 2.0, 100.0])
        gt = np.array([3.0, 5.0, 0.0])
        a = least_squares_align(pred, gt, mask=[True, True, False])
        assert a.scale == pytest.approx(2.0)
        assert a.shift == pytest.approx(1.0)

    @pytest.mark.parametrize("delta", [1e-3, 1e-2])
    def test_optimality_under_perturbation(self, delta):
        rng = np.random.default_rng(1)
        p = rng.normal(0, 1, 40)
        g = rng.normal(0, 2, 40)
        a = least_squares_align(p, g)

        def residual(s, t):
            r = s * p + t - g
            return r @ r

        base = residual(a.scale, a.shift)
        for ds, dt in ((delta, 0), (-delta, 0), (0, delta), (0, -delta),
                       (delta, delta), (-delta, -delta)):
            assert residual(a.scale + ds, a.shift + dt) >= base

    @given(st.integers(0, 300), st.floats(0.01, 50.0), st.floats(-20, 20))
    @settings(max_examples=40, deadline=None)
    def test_affine_recovery(self, seed, a_coeff, b_coeff):
        gt = np.random.default_rng(seed).uniform(1, 10, 30)
        pred = a_coeff * gt + b_coeff
        align = least_squares_align(pred, gt)
        np.testing.assert_allclose(apply_align(pred, align), gt, atol=1e-6)


class TestApplyAlign:
    def test_identity(self):
        p = np.array([1.0, 2.0])
        np.testing.assert_array_equal(apply_align(p, AffineAlign(1, 0)), p)

    def test_arithmetic(self):
        np.testing.assert_allclose(
            apply_align([1.0, 2.0], AffineAlign(2, 1)), [3.0, 5.0])

    def test_own_fit_beats_any_other(self):
        rng = np.random.default_rng(2)
        p, g = rng.normal(0, 1, 30), rng.normal(0, 1, 30)
        a = least_squares_align(p, g)
        best = np.sum((apply_align(p, a) - g) ** 2)
        for s, t in rng.uniform(-3, 3, (20, 2)):
            other = np.sum((apply_align(p, AffineAlign(s, t)) - g) ** 2)
            assert best <= other + 1e-9


class TestMetrics:
    def test_absrel_perfect(self):
        assert absrel([2.0, 4.0], [2.0, 4.0]) == 0.0

    def test_absrel_fixture(self):
        assert absrel([2.0, 4.0], [2.0, 2.0]) == pytest.approx(0.25)

    def test_absrel_scale_invariance(self):
        gt = np.array([2.0, 4.0, 8.0])
        pred = np.array([2.0, 3.0, 9.0])
        assert absrel(gt, pred) == pytest.approx(absrel(5 * gt, 5 * pred))

    def test_delta1_perfect(self):
        assert delta1([2.0, 4.0], [2.0, 4.0]) == 1.0

    def test_delta1_fixture(self):
        assert delta1([2.0, 4.0], [2.0, 2.0]) == pytest.approx(0.5)

    def test_delta1_factor_two_all_outliers(self):
        gt = np.array([1.0, 2.0, 3.0])
        assert delta1(gt, 2 * gt) == 0.0

    def test_delta1_nonpositive_pred_is_outlier(self):
        assert delta1([1.0, 1.0], [-1.0, 1.0]) == pytest.approx(0.5)

    def test_no_valid_pixels(self):
        with pytest.raises(DegenerateAlignment):
            absrel([1.0], [1.0], mask=[False])

    @given(st.integers(0, 500))
    @settings(max_examples=50, deadline=None)
    def test_delta1_bounds_and_absrel_sign(self, seed):
        rng = np.random.default_rng(seed)
        gt = rng.uniform(0.1, 80, 64)
        pred = rng.uniform(-5, 100, 64)
        d = delta1(gt, pred)
        assert 0.0 <= d <= 1.0
        assert absrel(gt, pred) >= 0.0


class TestInvertDisparity:
    def test_unit(self):
        assert invert_disparity(np.array([1.0]))[0] == 1.0

    def test_zero_clamps_to_clip(self):
        assert invert_disparity(np.array([0.0]))[0] == 80.0

    def test_clip_boundary(self):
        assert invert_disparity(np.array([0.0125]))[0] == pytest.approx(80.0)


def make_gt_sequence(rng, frames=4, shape=(6, 8), base=5.0):
    gts = [base + rng.uniform(0, 2, shape) + 0.1 * i
           for i in range(frames)]
    valid = [np.ones(shape, dtype=bool) for _ in range(frames)]
    return DepthSequence(gts, valid, kind="gt")


class TestProtocols:
    def test_global_affine_corruption_scores_perfectly(self):
        rng = np.random.default_rng(3)
        gt = make_gt_sequence(rng)
        pred_frames = [3.0 * (1.0 / f) + 0.05 for f in gt.frames]
        pred = DepthSequence(pred_frames,
                             [np.ones_like(f, dtype=bool)
                              for f in pred_frames])
        rep = eval_first_frame(pred, gt)
        assert rep.absrel == pytest.approx(0.0, abs=1e-6)
        assert rep.delta1 == 1.0
        rep_g = eval_global(pred, gt)
        assert rep_g.absrel == pytest.approx(0.0, abs=1e-6)

    def test_drift_shows_up_under_first_frame_alignment(self):
        rng = np.random.default_rng(4)
        gt = make_gt_sequence(rng, frames=2)
        inv = [1.0 / f for f in gt.frames]
        pred_frames = [inv[0], 2.0 * inv[1]]  # frame 1 drifted in scale
        pred = DepthSequence(pred_frames,
                             [np.ones_like(f, dtype=bool)
                              for f in pred_frames])
        rep = eval_first_frame(pred, gt)
        assert rep.absrel > 0.05
        # frame 0 alone is perfect
        solo = DepthSequence([pred_frames[0]], [pred.valid[0]])
        gt0 = DepthSequence([gt.frames[0]], [gt.valid[0]], kind="gt")
        assert eval_first_frame(solo, gt0).absrel == pytest.approx(0, abs=1e-6)

    def test_single_frame_first_equals_global(self):
        rng = np.random.default_rng(5)
        gt = make_gt_sequence(rng, frames=1)
        pred = DepthSequence([1.0 / gt.frames[0] + rng.normal(0, 0.01,
                                                              (6, 8))],
                             [np.ones((6, 8), dtype=bool)])
        a = eval_first_frame(pred, gt)
        b = eval_global(pred, gt)
        assert a.absrel == pytest.approx(b.absrel)
        assert a.delta1 == pytest.approx(b.delta1)

    def test_global_beats_first_frame_on_drift(self):
        rng = np.random.default_rng(6)
        gt = make_gt_sequence(rng, frames=20)
        pred_frames = [(1.0 + 0.03 * i) * (1.0 / f)
                       for i, f in enumerate(gt.frames)]
        masks = [np.ones((6, 8), dtype=bool) for _ in pred_frames]
        pred = DepthSequence(pred_frames, masks)
        first = eval_first_frame(pred, gt)
        glob = eval_global(pred, gt)
        assert glob.absrel <= first.absrel

    def test_horizon_beyond_length_equals_all(self):
        rng = np.random.default_rng(7)
        gt = make_gt_sequence(rng, frames=6)
        pred = DepthSequence([1.0 / f + rng.normal(0, 0.01, (6, 8))
                              for f in gt.frames],
                             [np.ones((6, 8), dtype=bool)] * 6)
        a = eval_global(pred, gt, horizon=500)
        b = eval_global(pred, gt, horizon=None)
        assert a.absrel == pytest.approx(b.absrel)

    def test_mismatched_lengths_rejected(self):
        rng = np.random.default_rng(8)
        gt = make_gt_sequence(rng, frames=3)
        pred = DepthSequence([1.0 / gt.frames[0]],
                             [np.ones((6, 8), dtype=bool)])
        with pytest.raises(ValueError):
            eval_first_frame(pred, gt)


class TestDriftCurve:
    def setup_pair(self, rng, scale_fn, frames=10):
        gt = make_gt_sequence(rng, frames=frames)
        pred_frames = [scale_fn(i) * (1.0 / f)
                       for i, f in enumerate(gt.frames)]
        pred = DepthSequence(pred_frames,
                             [np.ones((6, 8), dtype=bool)] * frames)
        return pred, gt

    def test_global_affine_gives_zero_curve(self):
        rng = np.random.default_rng(9)
        pred, gt = self.setup_pair(rng, lambda i: 2.0)
        curve = scale_drift_curve([pred], [gt])
        np.testing.assert_allclose(curve.raw_drift, 0.0, atol=1e-9)
        np.testing.assert_allclose(curve.drift, 0.0, atol=1e-9)

    def test_linear_ramp_recovered(self):
        rng = np.random.default_rng(10)
        # prediction scale decays so the fitted scale grows 1% per frame
        pred, gt = self.setup_pair(rng, lambda i: 1.0 / (1.0 + 0.01 * i),
                                   frames=12)
        curve = scale_drift_curve([pred], [gt])
        expected = 0.01 * np.arange(12)
        np.testing.assert_allclose(curve.raw_drift, expected, rtol=1e-5,
                                   atol=1e-8)

    def test_data_support_counting(self):
        rng = np.random.default_rng(11)
        p1, g1 = self.setup_pair(rng, lambda i: 1.0, frames=5)
        p2, g2 = self.setup_pair(rng, lambda i: 1.0, frames=9)
        curve = scale_drift_curve([p1, p2], [g1, g2])
        np.testing.assert_array_equal(curve.data_support,
                                      [2] * 5 + [1] * 4)
        assert (np.diff(curve.data_support) <= 0).all()

    def test_smoothing_window_one_is_identity(self):
        rng = np.random.default_rng(12)
        pred, gt = self.setup_pair(rng, lambda i: 1.0 + 0.05 * (i % 3))
        curve = scale_drift_curve([pred], [gt], window=1)
        np.testing.assert_array_equal(curve.drift, curve.raw_drift)

    def test_csv_columns(self, tmp_path):
        rng = np.random.default_rng(13)
        pred, gt = self.setup_pair(rng, lambda i: 1.0)
        curve = scale_drift_curve([pred], [gt])
        path = tmp_path / "drift.csv"
        curve.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "frame_index,drift,data_support"

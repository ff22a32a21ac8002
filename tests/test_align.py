import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthstream.align import (AffineAlign, DegenerateAlignment, absrel,
                               apply_align, delta1, eval_first_frame,
                               eval_global, invert_disparity,
                               least_squares_align, scale_drift_curve)
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

    def test_brute_force_grid_matches_loop(self):
        # the one-array grid search lands where the double loop over the
        # same 81x81 grid did, so the refinement starts from the same point
        def loop_align(p, g):
            def cost(s, t):
                r = s * p + t - g
                return float(r @ r)

            best, best_cost = (0.0, 0.0), cost(0.0, 0.0)
            for s in np.linspace(-10, 10, 81):
                for t in np.linspace(-10, 10, 81):
                    if cost(s, t) < best_cost:
                        best, best_cost = (s, t), cost(s, t)
            s, t = best
            step = 0.5
            for _ in range(200):
                improved = False
                for ds, dt in ((step, 0), (-step, 0), (0, step), (0, -step)):
                    if cost(s + ds, t + dt) < best_cost:
                        s, t = s + ds, t + dt
                        best_cost, improved = cost(s, t), True
                if not improved:
                    step *= 0.5
                    if step < 1e-12:
                        break
            return s, t

        rng = np.random.default_rng(5)
        for _ in range(4):
            p = rng.normal(0, 1, 40)
            g = rng.normal(0, 2, 40) + rng.uniform(-3, 3)
            brute = brute_force_align(p, g)
            np.testing.assert_allclose((brute.scale, brute.shift),
                                       loop_align(p, g), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("pred, gt, mask", [
        ([1, 2, 3, 4], [5], None),
        ([1, 2, 3], [3, 5, 7], [True, True]),
        ([1, 2], [3, 5, 7], [True, True, False]),
    ], ids=["gt_short", "mask_short", "pred_short"])
    def test_sizes_that_differ_rejected(self, pred, gt, mask):
        with pytest.raises(ValueError, match="sizes differ"):
            least_squares_align(pred, gt, mask)

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

    @pytest.mark.parametrize("bad", ["nan-pred", "inf-gt"])
    def test_non_finite_valid_pixel_rejected(self, bad):
        pred, gt = np.array([1.0, 2.0, 3.0]), np.array([3.0, 5.0, 7.0])
        if bad == "nan-pred":
            pred[1] = np.nan
        else:
            gt[1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            least_squares_align(pred, gt)
        # an invalid pixel may hold anything
        a = least_squares_align(pred, gt, mask=[True, False, True])
        assert (a.scale, a.shift) == pytest.approx((2.0, 1.0))

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

    @pytest.mark.parametrize("metric", [absrel, delta1])
    def test_sizes_that_differ_rejected(self, metric):
        with pytest.raises(ValueError, match="sizes differ"):
            metric([2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="sizes differ"):
            metric([2.0, 4.0], [2.0, 4.0], [True])

    def test_no_valid_pixels(self):
        with pytest.raises(DegenerateAlignment):
            absrel([1.0], [1.0], mask=[False])

    @pytest.mark.parametrize("metric", [absrel, delta1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_bad_gt_on_valid_pixel_rejected(self, metric, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            metric([bad, 2.0], [1.0, 2.0])
        assert metric([bad, 2.0], [1.0, 2.0], mask=[False, True]) in (0, 1)

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
    """Ground-truth depth [N, H, W] and an all-true validity mask."""
    depth = np.stack([base + rng.uniform(0, 2, shape) + 0.1 * i
                      for i in range(frames)])
    return depth, np.ones(depth.shape, dtype=bool)


class TestProtocols:
    def test_global_affine_corruption_scores_perfectly(self):
        rng = np.random.default_rng(3)
        depth, valid = make_gt_sequence(rng)
        pred = 3.0 * (1.0 / depth) + 0.05
        rep = eval_first_frame(pred, depth, valid)
        assert rep.absrel == pytest.approx(0.0, abs=1e-6)
        assert rep.delta1 == 1.0
        rep_g = eval_global(pred, depth, valid)
        assert rep_g.absrel == pytest.approx(0.0, abs=1e-6)

    def test_drift_shows_up_under_first_frame_alignment(self):
        rng = np.random.default_rng(4)
        depth, valid = make_gt_sequence(rng, frames=2)
        inv = 1.0 / depth
        pred = np.stack([inv[0], 2.0 * inv[1]])  # frame 1 drifted in scale
        rep = eval_first_frame(pred, depth, valid)
        assert rep.absrel > 0.05
        # frame 0 alone is perfect
        solo = eval_first_frame(pred[:1], depth[:1], valid[:1])
        assert solo.absrel == pytest.approx(0, abs=1e-6)

    def test_single_frame_first_equals_global(self):
        rng = np.random.default_rng(5)
        depth, valid = make_gt_sequence(rng, frames=1)
        pred = 1.0 / depth + rng.normal(0, 0.01, (1, 6, 8))
        a = eval_first_frame(pred, depth, valid)
        b = eval_global(pred, depth, valid)
        assert a.absrel == pytest.approx(b.absrel)
        assert a.delta1 == pytest.approx(b.delta1)

    def test_global_beats_first_frame_on_drift(self):
        rng = np.random.default_rng(6)
        depth, valid = make_gt_sequence(rng, frames=20)
        pred = (1.0 + 0.03 * np.arange(20))[:, None, None] * (1.0 / depth)
        first = eval_first_frame(pred, depth, valid)
        glob = eval_global(pred, depth, valid)
        assert glob.absrel <= first.absrel

    def test_horizon_beyond_length_equals_all(self):
        rng = np.random.default_rng(7)
        depth, valid = make_gt_sequence(rng, frames=6)
        pred = 1.0 / depth + rng.normal(0, 0.01, depth.shape)
        a = eval_global(pred, depth, valid, horizon=500)
        b = eval_global(pred, depth, valid, horizon=None)
        assert a.absrel == pytest.approx(b.absrel)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_rejected(self, horizon):
        rng = np.random.default_rng(7)
        depth, valid = make_gt_sequence(rng, frames=4)
        with pytest.raises(ValueError, match="horizon"):
            eval_global(1.0 / depth, depth, valid, horizon=horizon)

    def test_mismatched_lengths_rejected(self):
        rng = np.random.default_rng(8)
        depth, valid = make_gt_sequence(rng, frames=3)
        with pytest.raises(ValueError):
            eval_first_frame(1.0 / depth[:1], depth, valid)


def bad_sequence(case):
    """A (pred, depth, valid) triple every entry point must reject."""
    rng = np.random.default_rng(14)
    depth, valid = make_gt_sequence(rng, frames=3)
    pred = 1.0 / depth
    nan_pixel, inf_pixel, nan_frame0 = pred.copy(), pred.copy(), pred.copy()
    nan_pixel[1, 2, 3] = np.nan
    inf_pixel[2, 0, 0] = np.inf
    nan_frame0[0] = np.nan
    return {
        "nan-pixel": (nan_pixel, depth, valid),
        "inf-pixel": (inf_pixel, depth, valid),
        "nan-frame0": (nan_frame0, depth, valid),
        "fewer-frames": (pred[:2], depth, valid),
        "wrong-size": (pred[:, :5], depth, valid),
        "one-frame-2d": (pred[0], depth[0], valid[0]),
        "no-frames": (pred[:0], depth[:0], valid[:0]),
        "valid-mis-sized": (pred, depth, valid[:, :, :7]),
        "depth-mis-sized": (pred, depth[:2], valid),
    }[case]


def run_protocol(protocol, seq):
    return {
        "first": lambda: eval_first_frame(*seq),
        "global": lambda: eval_global(*seq),
        "global3": lambda: eval_global(*seq, horizon=3),
        "drift": lambda: scale_drift_curve([seq]),
    }[protocol]()


class TestSequenceInput:
    @pytest.mark.parametrize("protocol", ["first", "global", "global3",
                                          "drift"])
    @pytest.mark.parametrize("case", [
        "nan-pixel", "inf-pixel", "nan-frame0", "fewer-frames",
        "wrong-size", "one-frame-2d", "no-frames", "valid-mis-sized",
        "depth-mis-sized"])
    def test_bad_sequence_rejected(self, protocol, case):
        with pytest.raises(ValueError, match="non-finite|shape"):
            run_protocol(protocol, bad_sequence(case))

    @pytest.mark.parametrize("protocol", ["first", "global", "global3",
                                          "drift"])
    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0])
    def test_bad_gt_on_valid_pixel_rejected(self, protocol, bad):
        depth, valid = make_gt_sequence(np.random.default_rng(15), frames=3)
        pred = 1.0 / depth
        depth[1, 2, 3] = bad
        valid[1, 2, 3] = True
        with pytest.raises(ValueError, match="ground-truth depth"):
            run_protocol(protocol, (pred, depth, valid))
        valid[1, 2, 3] = False  # an invalid pixel may hold anything
        run_protocol(protocol, (pred, depth, valid))


def pinned_sequences():
    """Three sequences of 5, 3 and 7 frames with partial validity, depth
    past the 80 clip and a 5%/frame scale ramp."""
    rng = np.random.default_rng(2026)
    seqs = []
    for n in (5, 3, 7):
        depth = rng.uniform(1.0, 100.0, (n, 4, 5)).astype(np.float32)
        valid = rng.random((n, 4, 5)) > 0.25
        ramp = (1.0 + 0.05 * np.arange(n))[:, None, None]
        pred = (ramp / np.minimum(depth, 80.0)
                + rng.normal(0, 0.002, (n, 4, 5))).astype(np.float32)
        seqs.append((pred, depth, valid))
    return seqs


class TestPinnedOutputs:
    """Exact outputs of the evaluation protocols on a seeded fixture, so a
    change of summation order or masking cannot pass silently."""

    REPORTS = {
        (0, "first"): (0.10009113959735805, 0.8533333333333334),
        (0, "global3"): (0.0560179753513901, 0.9555555555555556),
        (0, "global500"): (0.07569179635668857, 0.9733333333333334),
        (0, "globalall"): (0.07569179635668857, 0.9733333333333334),
        (1, "first"): (0.07679482008463334, 0.9047619047619048),
        (1, "global3"): (0.06887135124723354, 0.9285714285714286),
        (1, "global500"): (0.06887135124723354, 0.9285714285714286),
        (1, "globalall"): (0.06887135124723354, 0.9285714285714286),
        (2, "first"): (0.136228562887348, 0.7478260869565218),
        (2, "global3"): (0.07078729566136749, 0.98),
        (2, "global500"): (0.086230885192266, 0.9304347826086956),
        (2, "globalall"): (0.086230885192266, 0.9304347826086956),
    }
    RAW_DRIFT = [0.0, 0.03909467982540162, 0.08041315973402978,
                 0.1037945782246005, 0.13997839449881483,
                 0.17649516947435442, 0.19825802381577745]
    DRIFT_WINDOW_4 = [0.01954733991270081, 0.03983594651981046,
                      0.055825604446007975, 0.09082020307071167,
                      0.12517032548294987, 0.15463154150338682,
                      0.1715771959296489]

    @pytest.mark.parametrize("key", sorted(REPORTS))
    def test_eval_report(self, key):
        i, protocol = key
        pred, depth, valid = pinned_sequences()[i]
        if protocol == "first":
            rep = eval_first_frame(pred, depth, valid)
        else:
            horizon = {"global3": 3, "global500": 500}.get(protocol)
            rep = eval_global(pred, depth, valid, horizon=horizon)
        assert (rep.absrel, rep.delta1) == self.REPORTS[key]

    @pytest.mark.parametrize("window", [1, 4])
    def test_drift_curve(self, window):
        curve = scale_drift_curve(pinned_sequences(), window=window)
        expected = self.RAW_DRIFT if window == 1 else self.DRIFT_WINDOW_4
        assert curve.raw_drift.tolist() == self.RAW_DRIFT
        assert curve.drift.tolist() == expected
        assert curve.data_support.tolist() == [3, 3, 3, 2, 2, 1, 1]


class TestDriftCurve:
    def setup_seq(self, rng, scale_fn, frames=10):
        depth, valid = make_gt_sequence(rng, frames=frames)
        pred = np.stack([scale_fn(i) * (1.0 / f)
                         for i, f in enumerate(depth)])
        return pred, depth, valid

    def test_global_affine_gives_zero_curve(self):
        rng = np.random.default_rng(9)
        seq = self.setup_seq(rng, lambda i: 2.0)
        curve = scale_drift_curve([seq])
        np.testing.assert_allclose(curve.raw_drift, 0.0, atol=1e-9)
        np.testing.assert_allclose(curve.drift, 0.0, atol=1e-9)

    def test_linear_ramp_recovered(self):
        rng = np.random.default_rng(10)
        # prediction scale decays so the fitted scale grows 1% per frame
        seq = self.setup_seq(rng, lambda i: 1.0 / (1.0 + 0.01 * i),
                             frames=12)
        curve = scale_drift_curve([seq])
        expected = 0.01 * np.arange(12)
        np.testing.assert_allclose(curve.raw_drift, expected, rtol=1e-5,
                                   atol=1e-8)

    def test_data_support_counting(self):
        rng = np.random.default_rng(11)
        s1 = self.setup_seq(rng, lambda i: 1.0, frames=5)
        s2 = self.setup_seq(rng, lambda i: 1.0, frames=9)
        curve = scale_drift_curve([s1, s2])
        np.testing.assert_array_equal(curve.data_support,
                                      [2] * 5 + [1] * 4)
        assert (np.diff(curve.data_support) <= 0).all()

    def test_smoothing_window_one_is_identity(self):
        rng = np.random.default_rng(12)
        seq = self.setup_seq(rng, lambda i: 1.0 + 0.05 * (i % 3))
        curve = scale_drift_curve([seq], window=1)
        np.testing.assert_array_equal(curve.drift, curve.raw_drift)

    @pytest.mark.parametrize("window", [0, -3])
    def test_smoothing_window_below_one_rejected(self, window):
        seq = self.setup_seq(np.random.default_rng(12), lambda i: 1.0)
        with pytest.raises(ValueError, match="window must be >= 1"):
            scale_drift_curve([seq], window=window)

    def test_no_sequences_rejected(self):
        with pytest.raises(ValueError, match="no sequences"):
            scale_drift_curve([])

    def test_csv_columns(self, tmp_path):
        rng = np.random.default_rng(13)
        seq = self.setup_seq(rng, lambda i: 1.0)
        curve = scale_drift_curve([seq])
        path = tmp_path / "drift.csv"
        curve.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "frame_index,drift,data_support"

"""Affine alignment, depth metrics, evaluation protocols, scale drift.

The one closed-form scale/shift fit lives here: training learns through
solve_scale_shift on the tape, and evaluation runs it in float64 on the
gathered valid pixels. Alignment operates in inverse-depth space; metrics
convert to depth via clamped inversion. The evaluation entry points take
one sequence as three [N, H, W] arrays: predicted inverse depth,
ground-truth depth and validity.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import tensor as T

__all__ = [
    "AffineAlign", "EvalReport", "DriftCurve", "DegenerateAlignment",
    "fit_products", "solve_scale_shift", "least_squares_align",
    "apply_align", "absrel", "delta1", "invert_disparity",
    "eval_first_frame", "eval_global", "scale_drift_curve",
    "DEPTH_CLIP", "DELTA1_THRESHOLD",
]

DEPTH_CLIP = 80.0
DELTA1_THRESHOLD = 1.25


class DegenerateAlignment(ValueError):
    """Too few valid pixels (or zero variance) to fit scale and shift."""


@dataclass(frozen=True)
class AffineAlign:
    scale: float
    shift: float
    degenerate: bool = False


def _masked(a, b, mask):
    """Both maps flattened to float64, kept where mask is true; ValueError
    unless the maps and the mask have one size."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    m = None if mask is None else np.asarray(mask, dtype=bool).reshape(-1)
    sizes = (a.size, b.size) + (() if m is None else (m.size,))
    if len(set(sizes)) > 1:
        raise ValueError(f"map and mask sizes differ: {sizes}")
    return (a, b) if m is None else (a[m], b[m])


def fit_products(pred, gt, masks):
    """pred as a Tensor, gt and the mask in pred's precision, and the
    full-resolution products every least-squares fit of pred against gt
    sums: pred·m, pred²·m, pred·gt·m (taped) and gt·m."""
    p = T._as_tensor(pred)
    gt = np.asarray(gt, dtype=p.data.dtype)
    m = np.asarray(masks, dtype=bool).astype(p.data.dtype)
    pm = T.mul(p, m)
    return p, gt, m, (pm, T.mul(pm, p), T.mul(pm, gt), gt * m)


def solve_scale_shift(products, m: np.ndarray, axis=None):
    """Differentiable least-squares (s, t) and valid-pixel counts n from
    fit_products' products summed over axis: pooled (None) or per frame
    ((1, 2)). All three keep the reduced axes, so they broadcast on pred."""
    n = m.sum(axis=axis, keepdims=True)
    if (n < 2).any():
        raise DegenerateAlignment("need >= 2 valid pixels for the fit")
    sp, spp, spg = (T.sum_(x, axis) for x in products[:3])
    sg = products[3].sum(axis=axis, keepdims=True)
    det = T.sub(T.mul(spp, n), T.mul(sp, sp))
    if (np.abs(det.data) / (n * n) < 1e-12).any():
        raise DegenerateAlignment("prediction variance too small to fit")
    s = T.div(T.sub(T.mul(spg, n), T.mul(sp, sg)), det)
    t = T.div(T.sub(T.mul(spp, sg), T.mul(sp, spg)), det)
    return s, t, n


def least_squares_align(pred, gt, mask=None) -> AffineAlign:
    """Closed-form (scale, shift) minimizing sum((s*p + t - g)^2) over the
    valid pixels, by solve_scale_shift in float64. Falls back to a pure
    shift (s=1) when the prediction has no variance."""
    p, g = _masked(pred, gt, mask)
    if p.size < 2:
        raise DegenerateAlignment(f"need >= 2 valid pixels, got {p.size}")
    if not (np.isfinite(p).all() and np.isfinite(g).all()):
        raise ValueError("pred and gt must be finite on valid pixels")
    _, _, m, products = fit_products(p, g, np.ones(p.size, dtype=bool))
    try:
        s, t, _ = solve_scale_shift(products, m)
    except DegenerateAlignment:
        return AffineAlign(1.0, float(g.mean() - p.mean()), degenerate=True)
    return AffineAlign(s.item(), t.item())


def apply_align(pred, align: AffineAlign):
    return align.scale * np.asarray(pred, dtype=np.float64) + align.shift


def invert_disparity(d):
    """Inverse depth -> depth, clamped to the evaluation range (0, 80]."""
    depth = 1.0 / np.maximum(np.asarray(d, dtype=np.float64), 1e-6)
    return np.minimum(depth, DEPTH_CLIP)


def absrel(gt, aligned_pred, mask=None) -> float:
    """Mean |D - D'| / D over valid pixels."""
    g, p = _metric_pixels(gt, aligned_pred, mask)
    return float(np.mean(np.abs(g - p) / g))


def delta1(gt, aligned_pred, mask=None) -> float:
    """Fraction of valid pixels with max(D/D', D'/D) < 1.25.

    Non-positive aligned predictions count as outliers.
    """
    g, p = _metric_pixels(gt, aligned_pred, mask)
    ok = p > 0
    ratio = np.ones_like(g) * np.inf
    ratio[ok] = np.maximum(g[ok] / p[ok], p[ok] / g[ok])
    return float(np.mean(ratio < DELTA1_THRESHOLD))


def _metric_pixels(gt, pred, mask):
    g, p = _masked(gt, pred, mask)
    if g.size == 0:
        raise DegenerateAlignment("no valid pixels")
    if not np.all(np.isfinite(g) & (g > 0)):
        raise ValueError("ground-truth depth must be finite and positive "
                         "on valid pixels")
    return g, p


@dataclass
class EvalReport:
    absrel: float
    delta1: float


def _sequence(pred, depth, valid):
    """Check one sequence: pred inverse depth, gt depth and validity must
    share one [N, H, W] shape with N >= 1, pred must be finite and depth
    positive (not NaN; +inf clips to the range) on valid pixels. Returns
    float64 pred, gt depth clipped to the evaluation range, and the
    boolean validity."""
    pred = np.asarray(pred, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if (pred.ndim != 3 or len(pred) < 1 or depth.shape != pred.shape
            or valid.shape != pred.shape):
        raise ValueError(f"pred, depth and valid must share one [N, H, W] "
                         f"shape with N >= 1, got {pred.shape}, "
                         f"{depth.shape} and {valid.shape}")
    if not np.isfinite(pred).all():
        raise ValueError("prediction has non-finite values")
    if not (depth[valid] > 0).all():
        raise ValueError("ground-truth depth has NaN or non-positive values "
                         "on valid pixels")
    return pred, np.minimum(depth, DEPTH_CLIP), valid


def _gt_inverse(depth):
    # invalid (non-positive) pixels are masked out downstream; avoid the
    # divide warning by writing zeros there
    return np.divide(1.0, depth, out=np.zeros_like(depth), where=depth > 0)


def _report(pred, depth, valid, align) -> EvalReport:
    aligned = invert_disparity(apply_align(pred, align))
    return EvalReport(absrel(depth, aligned, valid),
                      delta1(depth, aligned, valid))


def eval_first_frame(pred, depth, valid) -> EvalReport:
    """Fit (s, t) on frame 0 in inverse-depth space, apply to the whole
    video, pool metrics over all valid pixels of all frames."""
    pred, depth, valid = _sequence(pred, depth, valid)
    align = least_squares_align(pred[0], _gt_inverse(depth[0]), valid[0])
    return _report(pred, depth, valid, align)


def eval_global(pred, depth, valid, horizon: int | None = None) -> EvalReport:
    """One joint (s, t) over all valid pixels within the horizon
    (None = all frames); metrics over the same horizon."""
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be >= 1 or None, got {horizon}")
    pred, depth, valid = _sequence(pred, depth, valid)
    pred, depth, valid = pred[:horizon], depth[:horizon], valid[:horizon]
    align = least_squares_align(pred, _gt_inverse(depth), valid)
    return _report(pred, depth, valid, align)


@dataclass
class DriftCurve:
    drift: np.ndarray          # smoothed per-frame-index mean scale error
    raw_drift: np.ndarray      # before smoothing
    data_support: np.ndarray   # sequences covering each index

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["frame_index", "drift", "data_support"])
            for j, (d, n) in enumerate(zip(self.drift, self.data_support)):
                w.writerow([j, f"{d:.8f}", int(n)])


def _moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average, truncated at the boundaries."""
    if window <= 1:
        return x.copy()
    out = np.empty_like(x)
    half = window // 2
    for i in range(len(x)):
        lo = max(0, i - half)
        hi = min(len(x), i + (window - half))
        out[i] = x[lo:hi].mean()
    return out


def scale_drift_curve(sequences, window: int = 4) -> DriftCurve:
    """Mean |s_0 - s_j| / s_0 per frame index over all (pred, depth,
    valid) sequences that reach that index, plus the data-support
    counts."""
    per_seq: list[np.ndarray] = []
    for seq in sequences:
        pred, depth, valid = _sequence(*seq)
        s = np.array([least_squares_align(p, _gt_inverse(d), m).scale
                      for p, d, m in zip(pred, depth, valid)])
        if s[0] == 0:
            raise DegenerateAlignment("frame-0 scale is zero")
        # |s0| in the denominator keeps drift non-negative even when the
        # reference fit lands on a negative scale
        per_seq.append(np.abs(s[0] - s) / np.abs(s[0]))
    if not per_seq:
        raise ValueError("no sequences")
    max_len = max(len(d) for d in per_seq)
    raw = np.zeros(max_len)
    support = np.zeros(max_len, dtype=int)
    for j in range(max_len):
        vals = [d[j] for d in per_seq if len(d) > j]
        support[j] = len(vals)
        raw[j] = float(np.mean(vals))
    return DriftCurve(drift=_moving_average(raw, window), raw_drift=raw,
                      data_support=support)

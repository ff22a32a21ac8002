"""Affine alignment, depth metrics, evaluation protocols, scale drift.

Everything here is pure numpy over immutable inputs. Alignment operates in
the model's inverse-depth space; metrics convert to depth via clamped
inversion before comparing against ground truth.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AffineAlign", "DepthSequence", "EvalReport", "DriftCurve",
    "DegenerateAlignment", "least_squares_align", "apply_align",
    "absrel", "delta1", "invert_disparity", "eval_first_frame",
    "eval_global", "scale_drift_curve",
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


@dataclass
class DepthSequence:
    """Per-frame maps with validity masks; kind is 'gt' or 'pred'."""

    frames: list
    valid: list
    kind: str = "pred"

    def __post_init__(self):
        if len(self.frames) != len(self.valid):
            raise ValueError("frames and masks differ in length")

    def __len__(self):
        return len(self.frames)


def _joint(pred, gt, mask):
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    g = np.asarray(gt, dtype=np.float64).reshape(-1)
    if mask is None:
        m = np.ones_like(p, dtype=bool)
    else:
        m = np.asarray(mask, dtype=bool).reshape(-1)
    return p[m], g[m]


def least_squares_align(pred, gt, mask=None) -> AffineAlign:
    """Closed-form (scale, shift) minimizing sum((s*p + t - g)^2).

    Falls back to a pure shift (s=1) when the prediction has no variance.
    """
    p, g = _joint(pred, gt, mask)
    n = p.size
    if n < 2:
        raise DegenerateAlignment(f"need >= 2 valid pixels, got {n}")
    sp, sg = p.sum(), g.sum()
    spp, spg = (p * p).sum(), (p * g).sum()
    var = spp / n - (sp / n) ** 2
    if var < 1e-12:
        return AffineAlign(1.0, float(g.mean() - p.mean()), degenerate=True)
    det = n * spp - sp * sp
    s = (n * spg - sp * sg) / det
    t = (spp * sg - sp * spg) / det
    return AffineAlign(float(s), float(t))


def apply_align(pred, align: AffineAlign):
    return align.scale * np.asarray(pred, dtype=np.float64) + align.shift


def invert_disparity(d, eps: float = 1e-6):
    """Inverse depth -> depth, clamped to the evaluation range (0, 80]."""
    depth = 1.0 / np.maximum(np.asarray(d, dtype=np.float64), eps)
    return np.minimum(depth, DEPTH_CLIP)


def absrel(gt, aligned_pred, mask=None) -> float:
    """Mean |D - D'| / D over valid pixels."""
    g, p = _masked_pair(gt, aligned_pred, mask)
    return float(np.mean(np.abs(g - p) / g))


def delta1(gt, aligned_pred, mask=None) -> float:
    """Fraction of valid pixels with max(D/D', D'/D) < 1.25.

    Non-positive aligned predictions count as outliers.
    """
    g, p = _masked_pair(gt, aligned_pred, mask)
    ok = p > 0
    ratio = np.ones_like(g) * np.inf
    ratio[ok] = np.maximum(g[ok] / p[ok], p[ok] / g[ok])
    return float(np.mean(ratio < DELTA1_THRESHOLD))


def _masked_pair(gt, pred, mask):
    g = np.asarray(gt, dtype=np.float64).reshape(-1)
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    if mask is not None:
        m = np.asarray(mask, dtype=bool).reshape(-1)
        g, p = g[m], p[m]
    if g.size == 0:
        raise DegenerateAlignment("no valid pixels")
    if np.any(g <= 0):
        raise ValueError("ground-truth depth must be positive on valid pixels")
    return g, p


@dataclass
class EvalReport:
    absrel: float
    delta1: float


def _clip_gt(gt_frames):
    return [np.clip(np.asarray(f, dtype=np.float64), None, DEPTH_CLIP)
            for f in gt_frames]


def _gt_inverse(gt_frame):
    # invalid (non-positive) pixels are masked out downstream; avoid the
    # divide warning by writing zeros there
    return np.divide(1.0, gt_frame, out=np.zeros_like(gt_frame),
                     where=gt_frame > 0)


def _pooled_metrics(pred_inv_frames, gt_frames, valid, align) -> EvalReport:
    gts, preds, masks = [], [], []
    for p, g, m in zip(pred_inv_frames, gt_frames, valid):
        depth = invert_disparity(apply_align(p, align))
        gts.append(np.asarray(g, dtype=np.float64).reshape(-1))
        preds.append(depth.reshape(-1))
        masks.append(np.asarray(m, dtype=bool).reshape(-1))
    g = np.concatenate(gts)
    p = np.concatenate(preds)
    m = np.concatenate(masks)
    return EvalReport(absrel(g, p, m), delta1(g, p, m))


def eval_first_frame(pred: DepthSequence, gt: DepthSequence) -> EvalReport:
    """Fit (s, t) on frame 0 in inverse-depth space, apply to the whole
    video, pool metrics over all valid pixels of all frames."""
    if len(pred) != len(gt) or len(pred) < 1:
        raise ValueError("sequences must have equal nonzero length")
    gt_frames = _clip_gt(gt.frames)
    align = least_squares_align(pred.frames[0], _gt_inverse(gt_frames[0]),
                                np.asarray(gt.valid[0], dtype=bool)
                                & np.asarray(pred.valid[0], dtype=bool))
    valid = [np.asarray(a, dtype=bool) & np.asarray(b, dtype=bool)
             for a, b in zip(pred.valid, gt.valid)]
    return _pooled_metrics(pred.frames, gt_frames, valid, align)


def eval_global(pred: DepthSequence, gt: DepthSequence,
                horizon: int | None = None) -> EvalReport:
    """One joint (s, t) over all valid pixels within the horizon
    (None = all frames); metrics over the same horizon."""
    if len(pred) != len(gt) or len(pred) < 1:
        raise ValueError("sequences must have equal nonzero length")
    n = len(pred) if horizon is None else min(horizon, len(pred))
    gt_frames = _clip_gt(gt.frames[:n])
    valid = [np.asarray(a, dtype=bool) & np.asarray(b, dtype=bool)
             for a, b in zip(pred.valid[:n], gt.valid[:n])]
    p_all = np.concatenate([np.asarray(f).reshape(-1)
                            for f in pred.frames[:n]])
    g_all = np.concatenate([_gt_inverse(f).reshape(-1) for f in gt_frames])
    m_all = np.concatenate([m.reshape(-1) for m in valid])
    align = least_squares_align(p_all, g_all, m_all)
    return _pooled_metrics(pred.frames[:n], gt_frames, valid, align)


@dataclass
class DriftCurve:
    drift: np.ndarray          # smoothed per-frame-index mean scale error
    raw_drift: np.ndarray      # before smoothing
    data_support: np.ndarray   # sequences covering each index
    window: int = 4

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


def scale_drift_curve(pred_seqs, gt_seqs, window: int = 4) -> DriftCurve:
    """Mean |s_0 - s_j| / s_0 per frame index over all sequences that
    reach that index, plus the data-support counts."""
    per_seq: list[np.ndarray] = []
    for pred, gt in zip(pred_seqs, gt_seqs):
        gt_frames = _clip_gt(gt.frames)
        scales = []
        for p, g, mp, mg in zip(pred.frames, gt_frames, pred.valid, gt.valid):
            m = np.asarray(mp, dtype=bool) & np.asarray(mg, dtype=bool)
            scales.append(least_squares_align(p, _gt_inverse(g), m).scale)
        s = np.asarray(scales, dtype=np.float64)
        if s[0] == 0:
            raise DegenerateAlignment("frame-0 scale is zero")
        # |s0| in the denominator keeps drift non-negative even when the
        # reference fit lands on a negative scale
        per_seq.append(np.abs(s[0] - s) / np.abs(s[0]))
    max_len = max(len(d) for d in per_seq)
    raw = np.zeros(max_len)
    support = np.zeros(max_len, dtype=int)
    for j in range(max_len):
        vals = [d[j] for d in per_seq if len(d) > j]
        support[j] = len(vals)
        raw[j] = float(np.mean(vals))
    return DriftCurve(drift=_moving_average(raw, window), raw_drift=raw,
                      data_support=support, window=window)

"""Training losses, frame augmentation, and the toy fine-tuning loop.

All losses operate in inverse-depth space on taped tensors, so gradients
flow through the closed-form scale/shift fits. Ground truth and validity
masks are plain numpy constants.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .align import eval_first_frame, fit_products, solve_scale_shift
from .model import DepthModel
from .tensor import Tape, Tensor

__all__ = [
    "LossWeights", "AugmentConfig", "TrainConfig",
    "loss_ssi_scene", "loss_tgm", "loss_sascon", "loss_total",
    "frame_augment", "train_step", "Trainer", "ablation_suite",
    "ABLATION_ROWS",
]
_RECT_CHUNK = 32  # frame_augment's rectangles per unfinished frame and round
_MAX_RECT_FRACTION = 0.02  # frame_augment's area cap per rectangle, of the frame
_MAX_FRACTION = 0.4  # frame_augment's cap on each frame's zeroed area


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.beta, self.gamma))):
            raise ValueError(f"non-finite loss weight in {self}")


@dataclass
class AugmentConfig:
    enabled: bool = True


@dataclass
class TrainConfig:
    # the reference fine-tuning rate of 1e-6 assumes pre-trained weights;
    # from random toy initialization the loop needs a larger default
    learning_rate: float = 1e-3
    steps: int = 200
    batch_sequences: int = 1
    cosine_schedule: bool = True
    strides: tuple = (1, 2, 3, 4)
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"non-finite learning rate {self.learning_rate}")
        if self.learning_rate < 0:
            raise ValueError(f"negative learning rate {self.learning_rate}")


def _masked_mae(diff: Tensor, mask: np.ndarray) -> Tensor:
    """Mean |diff| over the mask, in diff's precision."""
    dtype = diff.data.dtype
    m = np.asarray(mask, dtype=dtype)
    return T.weighted_abs_sum(diff, m * dtype.type(1.0 / max(m.sum(), 1.0)))


def loss_ssi_scene(pred, gt, masks) -> Tensor:
    """Scale-and-shift-invariant loss: mean absolute error of the
    scene-aligned prediction."""
    return _weighted_losses(pred, gt, masks, LossWeights(1, 0, 0))[1]["ssi"]


def temporal_gradient_error(aligned_pred, gt, masks) -> Tensor:
    """Mean |(d_t - d_{t-1}) - (g_t - g_{t-1})| over jointly valid pixels
    of consecutive frames. Input is already aligned."""
    p = T._as_tensor(aligned_pred)
    gt = np.asarray(gt, dtype=p.data.dtype)
    m = np.asarray(masks, dtype=bool)
    if p.shape[0] < 2:
        raise ValueError("temporal gradients need >= 2 frames")
    return _masked_mae(T.sub(T.diff0(p), gt[1:] - gt[:-1]), m[1:] & m[:-1])


def loss_tgm(pred, gt, masks) -> Tensor:
    """Temporal gradient matching after scene-level alignment."""
    return _weighted_losses(pred, gt, masks, LossWeights(0, 1, 0))[1]["tgm"]


def loss_sascon(pred, gt, masks) -> Tensor:
    """Scale-and-shift consistency: per frame, L1 between the frame aligned
    with frame 0's fit and the frame aligned with its own fit; mean over
    each frame's valid pixels, then over frames."""
    return _weighted_losses(pred, gt, masks,
                            LossWeights(0, 0, 1))[1]["sascon"]


def _weighted_losses(pred, gt, masks, weights: LossWeights):
    """The weighted total and every term it ran; a zero beta or gamma
    skips its term. train_step and the three standalone losses all run
    this. The fits' products are built once, and SSI and TGM read one
    scene-aligned prediction."""
    p, gt, m, products = fit_products(pred, gt, masks)
    s, t, _ = solve_scale_shift(products, m)
    aligned = T.add(T.mul(p, s), t)
    terms = {"ssi": _masked_mae(T.sub(aligned, gt), m)}
    total = T.mul(terms["ssi"], weights.alpha)
    if weights.beta != 0:
        terms["tgm"] = temporal_gradient_error(aligned, gt, m)
        total = T.add(total, T.mul(terms["tgm"], weights.beta))
    if weights.gamma != 0:
        fs, ft, n = solve_scale_shift(products, m, axis=(1, 2))
        # (p*s0 + t0) - (p*s + t), with every frame's fit in one op
        gap = T.add(T.mul(p, T.sub(fs[0], fs)), T.sub(ft[0], ft))
        # in pred's precision, so a float64 gradcheck weighs in float64
        terms["sascon"] = T.weighted_abs_sum(
            gap, np.divide(m, n * m.shape[0], dtype=m.dtype))
        total = T.add(total, T.mul(terms["sascon"], weights.gamma))
    return total, terms


def loss_total(pred, gt, masks, weights: LossWeights = LossWeights()) -> Tensor:
    """Weighted sum of the three losses. A zero beta or gamma skips its
    term, so gamma=0 reproduces the two-term reference combination
    exactly."""
    return _weighted_losses(pred, gt, masks, weights)[0]


def frame_augment(rgb_seq: np.ndarray, cfg: AugmentConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """Zero i.i.d. random rectangles per frame, in all channels, while the
    union is below a target from U[0, _MAX_FRACTION); the first that would
    push it above int(_MAX_FRACTION * H * W) is rejected and ends the
    frame. Every unfinished frame draws _RECT_CHUNK rectangles at a time."""
    out = np.array(rgb_seq, copy=True, order="C")
    if not cfg.enabled:
        return out
    n, h, w = out.shape[:3]
    total = h * w
    budget_px = int(_MAX_FRACTION * total)
    max_area = max(1, int(_MAX_RECT_FRACTION * total))
    # side bounds (exclusive) are capped so a rectangle fits the frame
    rh_end = min(max(2, int(np.sqrt(max_area)) + 1), h + 1)
    goal = rng.uniform(0.0, _MAX_FRACTION, n) * total
    mask = np.zeros((n, total), dtype=bool)
    label = np.empty(n * total, dtype=np.intp)  # first covering rectangle
    live = np.flatnonzero(goal > 0)
    while live.size:
        rh = rng.integers(1, rh_end, (live.size, _RECT_CHUNK))
        rw = rng.integers(1, np.clip(max_area // rh + 1, 2, w + 1))
        y, x = rng.integers(0, h - rh + 1), rng.integers(0, w - rw + 1)
        # the flat pixel ids of every rectangle, rectangle after rectangle
        area = (rh * rw).ravel()
        rect = np.repeat(np.arange(area.size), area)
        row, col = np.divmod(np.arange(rect.size) - np.repeat(
            np.cumsum(area) - area, area), rw.ravel()[rect])
        ids = ((live[:, None] * h + y) * w + x).ravel()[rect] + row * w + col
        # an uncovered pixel counts for the first rectangle covering it
        fresh = ~mask.ravel()[ids]
        ids_f, rect_f = ids[fresh], rect[fresh]
        label[ids_f] = area.size
        np.minimum.at(label, ids_f, rect_f)
        gain = np.bincount(rect_f[label[ids_f] == rect_f],
                           minlength=area.size).reshape(rh.shape)
        union = mask[live].sum(axis=1, keepdims=True) + gain.cumsum(axis=1)
        # a frame stops at its first rectangle that crosses the budget
        # (rejected) or reaches the goal (kept)
        over = union > budget_px
        done = over | (union >= goal[live, None])
        accepted = ~over & (np.cumsum(done, axis=1) == done)
        mask.ravel()[ids[accepted.ravel()[rect]]] = True
        live = live[~done.any(axis=1)]
    # one flat write: each pixel's mask entry repeated over its channels
    out.reshape(-1)[np.repeat(mask.ravel(), out.size // mask.size)] = 0
    return out


def train_step(model: DepthModel, batch, weights: LossWeights, lr: float,
               step: int = 0) -> dict:
    """One gradient-descent step on the head at rate lr; the encoder stays
    frozen.

    batch: list of (features [N, S, C_enc], gt inverse-depth [N, H, W],
    masks [N, H, W]). The loss is loss_total's, averaged over the batch.
    Returns the per-term loss record for the log; a term skipped by a
    zero beta or gamma reads 0.0.
    """
    if not 0 <= lr < math.inf:
        raise ValueError(f"learning rate must be finite and >= 0, got {lr}")
    with Tape() as tape:
        totals, logs = [], []
        for feats, gt, masks in batch:
            total, terms = _weighted_losses(model.head_forward_batch(feats),
                                            gt, masks, weights)
            totals.append(total)
            logs.append({k: v.item() for k, v in terms.items()})
        loss = totals[0]
        for extra in totals[1:]:
            loss = T.add(loss, extra)
        loss = T.mul(loss, 1.0 / len(totals))
        if not np.isfinite(loss.data).all():
            raise T.NonFiniteError(f"non-finite loss at step {step}: {logs}")
        tape.backward(loss)
    for _, p in model.head_parameters():
        if lr != 0 and p.grad is not None:
            p.data = (p.data - lr * p.grad).astype(p.data.dtype)
        p.grad = None
    record = {"step": step, "lr": lr, "loss": loss.item()}
    for name in ("ssi", "tgm", "sascon"):
        record[name] = float(np.mean([log.get(name, 0.0) for log in logs]))
    return record


class Trainer:
    """Drives train_step over a fixed corpus with stride sampling and
    frame augmentation, logging CSV rows `step,loss,ssi,tgm,sascon,lr`."""

    def __init__(self, model: DepthModel, sequences, weights: LossWeights,
                 train_cfg: TrainConfig, augment: AugmentConfig | None = None):
        self.model = model
        self.sequences = sequences  # list of (rgb [N,H,W,3], gt_inv, masks)
        self.weights = weights
        self.cfg = train_cfg
        self.augment = augment or AugmentConfig(enabled=False)
        self.rng = np.random.default_rng(train_cfg.seed)
        self.log: list[dict] = []
        self.step_counter = 0

    def _sample_batch(self):
        batch = []
        for _ in range(self.cfg.batch_sequences):
            rgb, gt, masks = self.sequences[
                self.rng.integers(0, len(self.sequences))]
            # temporal losses need at least two frames after subsampling
            usable = [s for s in self.cfg.strides
                      if len(rgb[::s]) >= 2] or [1]
            stride = int(self.rng.choice(usable))
            rgb_s, gt_s, m_s = rgb[::stride], gt[::stride], masks[::stride]
            rgb_s = frame_augment(rgb_s, self.augment, self.rng)
            feats = self.model.encoder.encode_sequence(rgb_s)
            batch.append((feats, gt_s, m_s))
        return batch

    def run(self, steps: int | None = None):
        steps = self.cfg.steps if steps is None else steps
        for i in range(steps):
            # each call anneals over its own steps, so resuming restarts it
            lr = self.cfg.learning_rate
            if self.cfg.cosine_schedule:
                lr = lr * 0.5 * (1.0 + math.cos(math.pi * i / steps))
            rec = train_step(self.model, self._sample_batch(), self.weights,
                             lr, step=self.step_counter)
            self.log.append(rec)
            self.step_counter += 1
        return self.log

    def write_log(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["step", "loss", "ssi", "tgm", "sascon", "lr"])
            for r in self.log:
                w.writerow([r["step"], f"{r['loss']:.6f}", f"{r['ssi']:.6f}",
                            f"{r['tgm']:.6f}", f"{r['sascon']:.6f}",
                            f"{r['lr']:.8f}"])


ABLATION_ROWS = [
    ("none", None, False),
    ("two_term", LossWeights(1, 1, 0), False),
    ("two_term_aug", LossWeights(1, 1, 0), True),
    ("two_term_consistency", LossWeights(1, 1, 1), False),
    ("full_aug", LossWeights(1, 1, 1), True),
]


def ablation_suite(model_factory, train_sequences, eval_pairs,
                   train_cfg: TrainConfig):
    """Train one model per loss configuration row (identical seeds and
    budget) and evaluate with first-frame alignment.

    eval_pairs: list of (rgb [N, H, W, 3], gt depth [N, H, W], valid
    [N, H, W]). Returns rows of {config, absrel, delta1}.
    """
    rows = []
    for name, weights, augment in ABLATION_ROWS:
        model = model_factory()
        if weights is not None:
            trainer = Trainer(model, train_sequences, weights, train_cfg,
                              AugmentConfig(enabled=augment))
            trainer.run()
        reports = [eval_first_frame(model.forward_batch(rgb), depth, valid)
                   for rgb, depth, valid in eval_pairs]
        rows.append({
            "config": name,
            "absrel": float(np.mean([r.absrel for r in reports])),
            "delta1": float(np.mean([r.delta1 for r in reports])),
        })
    return rows

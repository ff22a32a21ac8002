"""Self-check suite: streaming equivalence, gradient checks, and the
alignment oracle. Used by the `check` subcommand and by the test suite."""

from __future__ import annotations

from functools import partial

import numpy as np

from . import align
from .align import AffineAlign, least_squares_align
from .losses import loss_sascon, loss_ssi_scene, loss_tgm
from .model import DepthModel, ModelConfig
from .tensor import Tensor, gradcheck

__all__ = ["EQUIV_CONFIGS", "EQUIV_TOL", "ALIGN_TOL", "GRAD_TOL",
           "streaming_equivalence_check",
           "brute_force_align", "alignment_oracle_check",
           "loss_gradient_check", "run_all"]

# the (c, n) pairs of the equivalence gate, in check and in the tests;
# at c = 2, c - 1 is the single frame already listed, so 2c stands in
EQUIV_CONFIGS = tuple((c, n) for c in (2, 4, 8, 16)
                      for n in (1, c - 1 if c > 2 else 2 * c, c, c + 5,
                                3 * c))
# the gates: |batch - stream|, a fit's residual gap to the brute-force
# minimizer, and a loss gradcheck's relative error
EQUIV_TOL, ALIGN_TOL, GRAD_TOL = 1e-5, 1e-6, 1e-4


def streaming_equivalence_check(c: int, n_frames: int, seed: int,
                                band_override: int | None = None) -> dict:
    """Full-model batch output vs frame-by-frame streaming output.

    band_override widens/narrows the training mask band away from the
    cache capacity, which must break the equivalence (mutation check).
    """
    cfg = ModelConfig(height=16, width=16, patch_size=4, encoder_channels=8,
                      head_channels=8, num_motion_modules=2,
                      context=max(c, band_override or 0), seed=seed)
    model = DepthModel(cfg)
    rng = np.random.default_rng(seed + 100)
    rgb = rng.random((n_frames, cfg.height, cfg.width, 3)).astype(np.float32)
    feats = model.encoder.encode_sequence(rgb)
    band = band_override if band_override is not None else c
    batch_out = model.head_forward_batch(feats, context=band).data
    session = model.new_session(context=c)
    stream_out = np.stack([session.head_forward_stream(f) for f in feats])
    diff = float(np.max(np.abs(batch_out - stream_out)))
    return {"c": c, "n": n_frames, "max_abs_diff": diff,
            "passed": diff < EQUIV_TOL}


def brute_force_align(pred, gt) -> AffineAlign:
    """Independent minimizer of sum((s*p + t - g)^2): coarse grid search
    refined by coordinate descent. Never uses the normal equations."""
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    g = np.asarray(gt, dtype=np.float64).reshape(-1)

    def cost(s, t):
        r = s * p + t - g
        return float(r @ r)

    # every point of the 81x81 grid at once: residuals [s, t, pixel]
    grid = np.linspace(-10, 10, 81)
    r = grid[:, None, None] * p + grid[None, :, None] - g
    i, j = np.unravel_index(np.argmin(np.einsum("stk,stk->st", r, r)),
                            (grid.size, grid.size))
    s, t = grid[i], grid[j]
    best_cost = cost(s, t)
    step = 0.5
    for _ in range(200):
        improved = False
        for ds, dt in ((step, 0), (-step, 0), (0, step), (0, -step)):
            c = cost(s + ds, t + dt)
            if c < best_cost:
                s, t, best_cost = s + ds, t + dt, c
                improved = True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return AffineAlign(s, t)


def _residual_gap(fit: AffineAlign, p, g) -> float:
    """How far fit's squared residual is from the brute-force minimizer's."""
    brute = brute_force_align(p, g)
    r, rb = fit.scale * p + fit.shift - g, brute.scale * p + brute.shift - g
    return abs(float(r @ r) - float(rb @ rb))


def alignment_oracle_check(trials: int = 100, seed: int = 0) -> dict:
    """The shared closed-form fit must match the brute-force minimizer's
    residual, pooled (least_squares_align on 50 pixels) and per frame
    (align.solve_scale_shift over axis (1, 2) on a masked 2-frame stack,
    in float64, against each frame's valid pixels)."""
    rng = np.random.default_rng(seed)
    frame_rng = np.random.default_rng([seed, 1])
    gaps = {"pooled": 0.0, "per_frame": 0.0}
    for _ in range(trials):
        p = rng.normal(0, 1, 50)
        g = rng.normal(0, 2, 50) + rng.uniform(-3, 3)
        gaps["pooled"] = max(gaps["pooled"],
                             _residual_gap(least_squares_align(p, g), p, g))
        p = frame_rng.normal(0, 1, (2, 5, 10))
        g = frame_rng.normal(0, 2, p.shape) + frame_rng.uniform(-3, 3)
        m = frame_rng.random(p.shape) > 0.2
        _, _, mf, products = align.fit_products(p, g, m)
        s, t, _ = align.solve_scale_shift(products, mf, axis=(1, 2))
        gaps["per_frame"] = max([gaps["per_frame"]] + [_residual_gap(
            AffineAlign(s.data[f].item(), t.data[f].item()), p[f][m[f]],
            g[f][m[f]]) for f in range(len(p))])
    res = {k: {"worst_gap": v, "passed": v < ALIGN_TOL}
           for k, v in gaps.items()}
    return {"worst_gap": max(gaps.values()),
            "passed": max(gaps.values()) < ALIGN_TOL, **res}


def loss_gradient_check(seed: int = 0) -> dict:
    """Gradcheck every loss on a small seeded two-frame instance."""
    rng = np.random.default_rng(seed)
    n, h, w = 2, 3, 4
    gt = rng.uniform(0.5, 2.0, (n, h, w)).astype(np.float32)
    masks = np.ones((n, h, w), dtype=bool)
    pred0 = (gt * rng.uniform(0.8, 1.2) + rng.normal(0, 0.2, gt.shape))
    param = Tensor(pred0.astype(np.float32), requires_grad=True)
    losses = {"ssi": loss_ssi_scene, "tgm": loss_tgm, "sascon": loss_sascon}
    reports = {k: gradcheck(partial(f, param, gt, masks), [param],
                            tol=GRAD_TOL) for k, f in losses.items()}
    return {"reports": {k: v["max_rel_err"] for k, v in reports.items()},
            "passed": all(v["passed"] for v in reports.values())}


def run_all(seed: int = 0) -> bool:
    """Release-gate check; returns True iff every sub-check passes."""
    ok = True
    for c, n in EQUIV_CONFIGS:
        res = streaming_equivalence_check(c, n, seed)
        print(f"equivalence c={c} n={n}: "
              f"max_abs_diff={res['max_abs_diff']:.2e} "
              f"{'PASS' if res['passed'] else 'FAIL'}")
        ok &= res["passed"]
    # the gate must be able to fail: a mask band one wider than the cache
    # breaks the equivalence, so a passing gate here is a check failure
    res = streaming_equivalence_check(4, 9, seed, band_override=5)
    print(f"self-test band 5 vs cache 4 must fail the gate: "
          f"max_abs_diff={res['max_abs_diff']:.2e} "
          f"{'FAIL' if res['passed'] else 'PASS'}")
    ok &= not res["passed"]
    res = alignment_oracle_check(trials=20, seed=seed)
    print(f"alignment oracle: pooled worst_gap="
          f"{res['pooled']['worst_gap']:.2e}, per-frame worst_gap="
          f"{res['per_frame']['worst_gap']:.2e} "
          f"{'PASS' if res['passed'] else 'FAIL'}")
    ok &= res["passed"]
    res = loss_gradient_check(seed=seed)
    errs = ", ".join(f"{k}={v:.2e}" for k, v in res["reports"].items())
    print(f"loss gradcheck: {errs} "
          f"{'PASS' if res['passed'] else 'FAIL'}")
    ok &= res["passed"]
    return bool(ok)

"""Operator-facing command line.

Subcommands: gen, train, stream, infer-batch, eval, drift, bench, check.
Every run writes a reproducibility record (its resolved flags) next to
its outputs. Model and session flags left out take the model's values.
Exit codes: 0 success, 1 usage or input error (a NonFiniteError
included), 2 check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import verify
from .align import (eval_first_frame, eval_global, gt_inverse,
                    scale_drift_curve)
from .data import (SceneSpec, Primitive, generate_sequence, load_sequence,
                   read_pfm, save_sequence, write_pfm)
from .losses import (AugmentConfig, LossWeights, TrainConfig, Trainer)
from .model import DepthModel, ModelConfig, load_checkpoint, save_checkpoint
from .tensor import NonFiniteError

USAGE_ERROR, CHECK_FAILURE = 1, 2


def _write_run_record(args: argparse.Namespace) -> Path:
    """Create --out and write the resolved flags into it. Each command
    calls this once its input files are read, so bad input leaves no
    --out behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record = {k: v for k, v in vars(args).items() if k != "func"}
    with open(out / "run_config.json", "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    return out


def _demo_spec(seed: int, velocity: float, invalid: float) -> SceneSpec:
    rng = np.random.default_rng(seed)
    prims = [Primitive("plane", depth=float(rng.uniform(25, 60)))]
    for _ in range(rng.integers(1, 3)):
        prims.append(Primitive(
            "sphere",
            center=(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
                    float(rng.uniform(8, 20))),
            radius=float(rng.uniform(1.0, 3.0)),
            velocity=(float(rng.uniform(-0.02, 0.02)), 0.0, 0.0)))
    return SceneSpec(seed=seed, forward_velocity=velocity, primitives=prims,
                     invalid_fraction=invalid)


def cmd_gen(args) -> int:
    specs = [_demo_spec(args.seed + i, args.velocity, args.invalid_fraction)
             for i in range(args.sequences)]
    for spec in specs:
        spec.validate(args.frames)
    out = _write_run_record(args)
    for i, spec in enumerate(specs):
        rgb, depth, valid = generate_sequence(
            spec, args.frames, (args.height, args.width))
        save_sequence(out, f"seq{i:03d}", rgb, depth, valid)
    print(f"wrote {args.sequences} sequence(s) to {out}")
    return 0


def _manifests(data_dir) -> list[Path]:
    paths = sorted(Path(data_dir).glob("*.manifest"))
    if not paths:
        raise FileNotFoundError(f"no manifests under {data_dir}")
    return paths


# flags that fix the model (train) or the session (stream, infer-batch,
# bench), and the ModelConfig field each defaults to
_MODEL_FLAGS = {"context": "context", "caches": "cache_modulus",
                "precision": "precision", "height": "height", "width": "width"}


def _given_model_flags(args) -> dict:
    """The ModelConfig fields set by model flags given on the command line."""
    return {field: getattr(args, flag) for flag, field in _MODEL_FLAGS.items()
            if getattr(args, flag, None) is not None}


def _resolve_model_flags(args, model: DepthModel):
    """Fill every omitted model flag the command has from the model's
    config, so the run record holds the values the run used, and build a
    session with them, so the session's own checks refuse (ValueError) a
    value the model cannot run with before --out exists."""
    for flag, field in _MODEL_FLAGS.items():
        if hasattr(args, flag) and getattr(args, flag) is None:
            setattr(args, flag, getattr(model.cfg, field))
    model.new_session(args.context, getattr(args, "caches", None),
                      getattr(args, "precision", None))


def cmd_train(args) -> int:
    given = _given_model_flags(args)
    step_offset = 0
    if args.resume:
        model, extra = load_checkpoint(args.resume)
        step_offset = extra.get("steps_done", 0)
        cfg = model.cfg
        clash = [f"--{flag} {given[field]} (checkpoint: {getattr(cfg, field)})"
                 for flag, field in _MODEL_FLAGS.items()
                 if field in given and given[field] != getattr(cfg, field)]
        if clash:
            print("error: --resume keeps the checkpoint's model; conflicting "
                  + ", ".join(clash), file=sys.stderr)
            return USAGE_ERROR
    else:
        model = DepthModel(ModelConfig(seed=args.seed, **given))
    _resolve_model_flags(args, model)
    sequences = []
    for mpath in _manifests(args.data):
        rgb, depth, valid = load_sequence(mpath)
        sequences.append((rgb, gt_inverse(depth, valid), valid))
    cfg = TrainConfig(learning_rate=args.lr, steps=args.steps,
                      batch_sequences=args.batch, cosine_schedule=args.cosine,
                      seed=args.seed)
    weights = LossWeights(args.alpha, args.beta, args.gamma)
    out = _write_run_record(args)
    trainer = Trainer(model, sequences, weights, cfg,
                      AugmentConfig(enabled=args.augment))
    trainer.step_counter = step_offset
    trainer.run()
    trainer.write_log(out / "train_log.csv")
    save_checkpoint(model, out / "model.ckpt",
                    extra={"steps_done": trainer.step_counter})
    print(f"trained {args.steps} step(s); final loss "
          f"{trainer.log[-1]['loss']:.4f}")
    return 0


def _timed_stream(model: DepthModel, args, frames, features: bool = False):
    """Stream rgb frames, or encoder features if `features`, through a new
    session set by --context/--caches/--precision; return the outputs,
    per-frame wall ms and the final cache bytes."""
    session = model.new_session(context=args.context,
                                cache_modulus=args.caches,
                                precision=args.precision)
    step = session.head_forward_stream if features else session.step_rgb
    outs, ms = [], []
    for frame in frames:
        t0 = time.perf_counter()
        outs.append(step(frame))
        ms.append((time.perf_counter() - t0) * 1e3)
    return outs, ms, session.memory_footprint()


def cmd_infer(args) -> int:
    """`stream` (through the latent cache) or `infer-batch` (one banded
    pass per sequence), as args.command says."""
    model, _ = load_checkpoint(args.model)
    _resolve_model_flags(args, model)
    clips = [(mpath.stem, load_sequence(mpath, stride=args.stride)[0])
             for mpath in _manifests(args.data)]
    out = _write_run_record(args)
    streaming = args.command == "stream"
    for seq_id, rgb in clips:
        if streaming:
            preds, latencies, footprint = _timed_stream(model, args, rgb)
        else:
            t0 = time.perf_counter()
            preds = list(model.forward_batch(rgb, context=args.context))
            total_ms = (time.perf_counter() - t0) * 1e3
            latencies = [total_ms / len(preds)] * len(preds)
            footprint = 0
        listing = []
        for i, p in enumerate(preds):
            name = f"{seq_id}_pred_{i:05d}.pfm"
            write_pfm(out / name, p.astype(np.float32))
            listing.append(name)
        with open(out / f"{seq_id}.predlist", "w") as f:
            f.write("\n".join(listing) + "\n")
        with open(out / f"{seq_id}_latency.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["frame", "latency_ms"])
            for i, ms in enumerate(latencies):
                w.writerow([i, f"{ms:.4f}"])
        mode = "stream" if streaming else "batch"
        print(f"{seq_id}: {len(preds)} frames ({mode}), "
              f"cache bytes={footprint}")
    return 0


def _load_eval_pairs(pred_dir, gt_dir, stride: int = 1):
    pairs = []
    for mpath in _manifests(gt_dir):
        seq_id = mpath.stem
        predlist = Path(pred_dir) / f"{seq_id}.predlist"
        if not predlist.exists():
            raise FileNotFoundError(f"missing predictions for {seq_id}: "
                                    f"{predlist}")
        names = predlist.read_text().split()
        pred = [read_pfm(Path(pred_dir) / n) for n in names]
        _, depth, valid = load_sequence(mpath, stride=stride)
        if [p.shape for p in pred] != [d.shape for d in depth]:
            raise ValueError(f"{seq_id}: {len(pred)} predictions do not "
                             f"match ground truth of shape {depth.shape}")
        pairs.append((seq_id, (pred, depth, valid)))
    return pairs


def cmd_eval(args) -> int:
    pairs = _load_eval_pairs(args.pred, args.gt, stride=args.stride)
    out = _write_run_record(args)
    rows = []
    for seq_id, seq in pairs:
        if args.align == "first":
            rep = eval_first_frame(*seq)
        else:
            horizon = 500 if args.align == "global500" else None
            rep = eval_global(*seq, horizon=horizon)
        rows.append((seq_id, rep))
    with open(out / "eval.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["metric", "value"])
        w.writerow(["absrel", f"{np.mean([r.absrel for _, r in rows]):.6f}"])
        w.writerow(["delta1", f"{np.mean([r.delta1 for _, r in rows]):.6f}"])
    for seq_id, rep in rows:
        print(f"{seq_id}: absrel={rep.absrel:.4f} delta1={rep.delta1:.4f}")
    return 0


def cmd_drift(args) -> int:
    pairs = _load_eval_pairs(args.pred, args.gt, stride=args.stride)
    out = _write_run_record(args)
    curve = scale_drift_curve([seq for _, seq in pairs], window=args.smooth)
    curve.write_csv(out / "drift.csv")
    print(f"drift over {len(curve.drift)} frame indices "
          f"(smoothing window {args.smooth})")
    return 0


def cmd_bench(args) -> int:
    model = load_checkpoint(args.model)[0] if args.model else DepthModel(
        ModelConfig(seed=args.seed, **_given_model_flags(args)))
    cfg = model.cfg
    _resolve_model_flags(args, model)
    n, c, m = args.frames, args.context, args.caches
    # frames up to (c - 1) * m, where the window first holds c, are untimed
    warm = (c - 1) * m + 1
    if n <= warm:
        raise ValueError(f"--frames {n} must exceed the context {c} and "
                         f"cache stride {m} warm-up of {warm} frames")
    out = _write_run_record(args)
    rng = np.random.default_rng(args.seed)
    rgb = rng.random((n, cfg.height, cfg.width, 3)).astype(np.float32)
    feats = model.encoder.encode_sequence(rgb)
    _, stream_ms, footprint = _timed_stream(model, args, feats, features=True)
    # without a cache, each arriving frame forces a full-sequence
    # recompute, so the per-frame cost of the batch strategy is the cost
    # of one whole banded pass
    t0 = time.perf_counter()
    model.head_forward_batch(feats, context=args.context)
    batch_ms_per_frame = (time.perf_counter() - t0) * 1e3
    median_stream = statistics.median(stream_ms[warm:])
    with open(out / "bench.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["key", "value"])
        w.writerow(["frames", n])
        w.writerow(["warmup_excluded", warm])
        w.writerow(["context", args.context])
        w.writerow(["caches", args.caches])
        w.writerow(["precision", args.precision])
        w.writerow(["stream_median_ms", f"{median_stream:.4f}"])
        w.writerow(["batch_recompute_ms_per_frame",
                    f"{batch_ms_per_frame:.4f}"])
        w.writerow(["cache_bytes", footprint])
    print(f"stream median {median_stream:.3f} ms/frame vs batch recompute "
          f"{batch_ms_per_frame:.3f} ms/frame over {n} frames "
          f"({warm} warm-up excluded)")
    return 0


def cmd_check(args) -> int:
    ok = verify.run_all(seed=args.seed)
    print("ALL CHECKS PASSED" if ok else "CHECK FAILURE")
    return 0 if ok else CHECK_FAILURE


def _add_cache_flags(p):
    p.add_argument("--caches", type=int,
                   help="cache stride m: the window spans about m x c "
                        "frames (default: the model's)")
    p.add_argument("--precision", choices=["fp32", "fp16"],
                   help="cache precision (default: the model's)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="depthstream",
        description="streaming video depth at desk scale")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=64)
    p.add_argument("--sequences", type=int, default=2)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--velocity", type=float, default=0.1)
    p.add_argument("--invalid-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="fine-tune the head on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--augment", action="store_true")
    p.add_argument("--no-cosine", dest="cosine", action="store_false")
    p.add_argument("--resume", default=None,
                   help="checkpoint to continue; the model flags below "
                        "default to its values and must match them")
    p.add_argument("--height", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--context", type=int)
    _add_cache_flags(p)
    p.set_defaults(func=cmd_train)

    for name, help_text in (
            ("stream", "streaming inference over manifests"),
            ("infer-batch",
             "batch-mode inference (equivalence oracle for stream)")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--stride", type=int, default=1, choices=[1, 2, 3, 4])
        p.add_argument("--context", type=int,
                       help="attention window c (default: the model's)")
        p.add_argument("--model", required=True, help="model checkpoint")
        if name == "stream":
            _add_cache_flags(p)
        p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="evaluate predictions against gt")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--align", choices=["first", "global500", "globalall"],
                   default="first")
    p.add_argument("--stride", type=int, default=1, choices=[1, 2, 3, 4])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("drift", help="scale-drift curve")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smooth", type=int, default=4,
                   help="moving-average window; 1 disables smoothing")
    p.add_argument("--stride", type=int, default=1, choices=[1, 2, 3, 4])
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("bench", help="latency/memory report")
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--context", type=int)
    _add_cache_flags(p)
    p.add_argument("--model", default=None,
                   help="checkpoint; without it a seeded model is built")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("check", help="run the verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    # train leaves --height/--width None when they are omitted
    for flag in ("frames", "steps", "batch", "sequences", "height", "width",
                 "smooth"):
        if getattr(args, flag, None) is not None and getattr(args, flag) < 1:
            print(f"error: --{flag} must be >= 1", file=sys.stderr)
            return USAGE_ERROR
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError, NonFiniteError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Operator-facing command line.

Subcommands: gen, train, stream, infer-batch, eval, drift, bench, check.
Every run writes a reproducibility record (resolved config + seed) next to
its outputs. Exit codes: 0 success, 1 usage error, 2 check failure.
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
from .align import (DepthSequence, eval_first_frame, eval_global,
                    scale_drift_curve)
from .cache import PrecisionMode
from .data import (SceneSpec, Primitive, generate_sequence, load_sequence,
                   read_pfm, save_sequence, write_pfm)
from .losses import (AugmentConfig, LossWeights, TrainConfig, Trainer)
from .model import DepthModel, ModelConfig, load_checkpoint, save_checkpoint
from .tensor import finite_checks

USAGE_ERROR, CHECK_FAILURE = 1, 2


def _write_run_record(out_dir: Path, args: argparse.Namespace):
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {k: v for k, v in vars(args).items() if k != "func"}
    record = {k: (str(v) if isinstance(v, Path) else v)
              for k, v in record.items()}
    with open(out_dir / "run_config.json", "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)


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
    if args.frames < 1:
        print("error: --frames must be >= 1", file=sys.stderr)
        return USAGE_ERROR
    out = Path(args.out)
    _write_run_record(out, args)
    for i in range(args.sequences):
        seed = args.seed + i
        spec = _demo_spec(seed, args.velocity, args.invalid_fraction)
        rgb, depth, valid = generate_sequence(
            spec, args.frames, (args.height, args.width))
        save_sequence(out, f"seq{i:03d}", rgb, depth, valid, seed=seed)
    print(f"wrote {args.sequences} sequence(s) to {out}")
    return 0


def _load_model(args) -> DepthModel:
    model, _ = load_checkpoint(args.model)
    return model


def _manifests(data_dir) -> list[Path]:
    paths = sorted(Path(data_dir).glob("*.manifest"))
    if not paths:
        raise FileNotFoundError(f"no manifests under {data_dir}")
    return paths


def cmd_train(args) -> int:
    out = Path(args.out)
    _write_run_record(out, args)
    step_offset = 0
    if args.resume:
        model, extra = load_checkpoint(args.resume)
        step_offset = int(extra.get("steps_done", 0))
    else:
        model = DepthModel(ModelConfig(
            height=args.height, width=args.width, context=args.context,
            cache_modulus=args.caches, precision=args.precision,
            seed=args.seed))
    sequences = []
    for mpath in _manifests(args.data):
        rgb, depth, valid = load_sequence(mpath)
        gt_inv = np.where(valid, 1.0 / np.maximum(depth, 1e-6), 0.0)
        sequences.append((rgb, gt_inv.astype(np.float32), valid))
    cfg = TrainConfig(learning_rate=args.lr, steps=args.steps,
                      batch_sequences=args.batch, cosine_schedule=args.cosine,
                      seed=args.seed)
    trainer = Trainer(model, sequences,
                      LossWeights(args.alpha, args.beta, args.gamma), cfg,
                      AugmentConfig(enabled=args.augment))
    trainer.step_counter = step_offset
    trainer.run(args.steps)
    trainer.write_log(out / "train_log.csv")
    save_checkpoint(model, out / "model.ckpt",
                    extra={"steps_done": trainer.step_counter})
    print(f"trained {args.steps} step(s); final loss "
          f"{trainer.log[-1]['loss']:.4f}")
    return 0


def _infer_common(args, streaming: bool) -> int:
    out = Path(args.out)
    _write_run_record(out, args)
    model = _load_model(args)
    precision = PrecisionMode(args.precision)
    for mpath in _manifests(args.data):
        rgb, _, _ = load_sequence(mpath, stride=args.stride)
        seq_id = mpath.stem
        latencies = []
        preds = []
        if streaming:
            session = model.new_session(context=args.context,
                                        cache_modulus=args.caches,
                                        precision=precision)
            with finite_checks(False):
                for frame in rgb:
                    t0 = time.perf_counter()
                    preds.append(session.step_rgb(frame))
                    latencies.append((time.perf_counter() - t0) * 1e3)
            footprint = session.memory_footprint()
        else:
            with finite_checks(False):
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


def cmd_stream(args) -> int:
    return _infer_common(args, streaming=True)


def cmd_infer_batch(args) -> int:
    if args.caches != 1 or args.precision != "fp32":
        print("error: --caches and --precision fp16 apply to stream only",
              file=sys.stderr)
        return USAGE_ERROR
    return _infer_common(args, streaming=False)


def _load_eval_pairs(pred_dir, gt_dir, stride: int = 1):
    pairs = []
    for mpath in _manifests(gt_dir):
        seq_id = mpath.stem
        predlist = Path(pred_dir) / f"{seq_id}.predlist"
        if not predlist.exists():
            raise FileNotFoundError(f"missing predictions for {seq_id}: "
                                    f"{predlist}")
        names = predlist.read_text().split()
        pred_frames = [read_pfm(Path(pred_dir) / n) for n in names]
        _, depth, valid = load_sequence(mpath, stride=stride)
        if len(pred_frames) != len(depth):
            raise ValueError(f"{seq_id}: {len(pred_frames)} predictions vs "
                             f"{len(depth)} ground-truth frames")
        pred = DepthSequence(pred_frames,
                             [np.ones(p.shape, dtype=bool)
                              for p in pred_frames], kind="pred")
        gt = DepthSequence(list(depth), list(valid), kind="gt")
        pairs.append((seq_id, pred, gt))
    return pairs


def cmd_eval(args) -> int:
    out = Path(args.out)
    _write_run_record(out, args)
    pairs = _load_eval_pairs(args.pred, args.gt, stride=args.stride)
    rows = []
    for seq_id, pred, gt in pairs:
        if args.align == "first":
            rep = eval_first_frame(pred, gt)
        elif args.align == "global500":
            rep = eval_global(pred, gt, horizon=500)
        else:
            rep = eval_global(pred, gt, horizon=None)
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
    out = Path(args.out)
    _write_run_record(out, args)
    pairs = _load_eval_pairs(args.pred, args.gt, stride=args.stride)
    curve = scale_drift_curve([p for _, p, _ in pairs],
                              [g for _, _, g in pairs], window=args.smooth)
    curve.write_csv(out / "drift.csv")
    print(f"drift over {len(curve.drift)} frame indices "
          f"(smoothing window {args.smooth})")
    return 0


def cmd_bench(args) -> int:
    out = Path(args.out)
    _write_run_record(out, args)
    model = _load_model(args) if args.model else DepthModel(ModelConfig(
        context=args.context, seed=args.seed))
    cfg = model.cfg
    n = args.frames
    rng = np.random.default_rng(args.seed)
    rgb = rng.random((n, cfg.height, cfg.width, 3)).astype(np.float32)
    feats = model.encoder.encode_sequence(rgb)
    precision = PrecisionMode(args.precision)
    with finite_checks(False):
        session = model.new_session(context=args.context,
                                    cache_modulus=args.caches,
                                    precision=precision)
        stream_ms = []
        for f in feats:
            t0 = time.perf_counter()
            session.head_forward_stream(f)
            stream_ms.append((time.perf_counter() - t0) * 1e3)
        footprint = session.memory_footprint()
        # without a cache, each arriving frame forces a full-sequence
        # recompute, so the per-frame cost of the batch strategy is the
        # cost of one whole banded pass
        t0 = time.perf_counter()
        model.head_forward_batch(feats, context=args.context)
        batch_ms_per_frame = (time.perf_counter() - t0) * 1e3
    warm = args.context
    kept = stream_ms[warm:]
    median_stream = statistics.median(kept) if kept else float("nan")
    with open(out / "bench.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["key", "value"])
        w.writerow(["frames", n])
        w.writerow(["warmup_excluded", min(warm, n)])
        w.writerow(["context", args.context])
        w.writerow(["caches", args.caches])
        w.writerow(["precision", args.precision])
        w.writerow(["stream_median_ms", f"{median_stream:.4f}"])
        w.writerow(["batch_recompute_ms_per_frame",
                    f"{batch_ms_per_frame:.4f}"])
        w.writerow(["cache_bytes", footprint])
    print(f"stream median {median_stream:.3f} ms/frame vs batch recompute "
          f"{batch_ms_per_frame:.3f} ms/frame over {n} frames "
          f"({min(warm, n)} warm-up excluded)")
    return 0


def cmd_check(args) -> int:
    ok = verify.run_all(seed=args.seed)
    print("ALL CHECKS PASSED" if ok else "CHECK FAILURE")
    return 0 if ok else CHECK_FAILURE


def _add_common(p, model_flag=False):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--context", type=int, default=16)
    p.add_argument("--caches", type=int, default=1,
                   help="virtual cache count m (1 = single cache)")
    p.add_argument("--precision", choices=["fp32", "fp16"], default="fp32")
    if model_flag:
        p.add_argument("--model", required=True, help="model checkpoint")


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
    p.add_argument("--cosine", action="store_true", default=True)
    p.add_argument("--no-cosine", dest="cosine", action="store_false")
    p.add_argument("--resume", default=None)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    for name, fn, help_text in (
            ("stream", cmd_stream, "streaming inference over manifests"),
            ("infer-batch", cmd_infer_batch,
             "batch-mode inference (equivalence oracle for stream)")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--stride", type=int, default=1, choices=[1, 2, 3, 4])
        _add_common(p, model_flag=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("eval", help="evaluate predictions against gt")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--align", choices=["first", "global500", "globalall"],
                   default="first")
    p.add_argument("--stride", type=int, default=1, choices=[1, 2, 3, 4])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("drift", help="scale-drift curve")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smooth", type=int, default=4,
                   help="moving-average window; 1 disables smoothing")
    p.add_argument("--stride", type=int, default=1, choices=[1, 2, 3, 4])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("bench", help="latency/memory report")
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--context", type=int, default=16)
    p.add_argument("--caches", type=int, default=1)
    p.add_argument("--precision", choices=["fp32", "fp16"], default="fp32")
    p.add_argument("--model", default=None)
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
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

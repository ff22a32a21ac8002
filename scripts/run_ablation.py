#!/usr/bin/env python3
"""Loss-configuration ablation on synthetic scenes.

Trains one model per loss configuration (no training, two-term, two-term
with augmentation, two-term plus consistency, full stack with
augmentation) under identical seeds and budget, then evaluates each with
first-frame alignment and writes a CSV.

Usage: python scripts/run_ablation.py --out runs/ablation.csv
"""

import argparse

import numpy as np

from depthstream.data import Primitive, SceneSpec, generate_sequence
from depthstream.losses import TrainConfig, ablation_suite
from depthstream.model import DepthModel, ModelConfig


def scene(seed, frames, size):
    spec = SceneSpec(seed=seed, forward_velocity=0.2, primitives=[
        Primitive("plane", depth=40.0),
        Primitive("sphere", center=(0.5, 0.2, 8.0), radius=2.0,
                  velocity=(0.01, 0.0, 0.0))])
    return generate_sequence(spec, frames, size)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="output CSV path")
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    size = (16, 16)
    rgb, depth, valid = scene(args.seed + 5, 20, size)
    train_seqs = [(rgb, (1.0 / depth).astype(np.float32), valid)]
    eval_pairs = [scene(args.seed + 77, 24, size)]

    def factory():
        return DepthModel(ModelConfig(height=16, width=16, patch_size=4,
                                      encoder_channels=8, head_channels=8,
                                      num_motion_modules=2, context=16,
                                      seed=args.seed))

    cfg = TrainConfig(learning_rate=5e-2, steps=args.steps, seed=args.seed)
    rows = ablation_suite(factory, train_seqs, eval_pairs, cfg,
                          csv_path=args.out)
    for row in rows:
        print(f"{row['config']:>22}: absrel={row['absrel']:.4f} "
              f"delta1={row['delta1']:.4f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Loss-configuration ablation on synthetic scenes, over several seeds.

Trains one model per loss configuration (no training, two-term, two-term
with augmentation, two-term plus consistency, full stack with
augmentation) under identical budget, then evaluates each with
first-frame alignment. The training and held-out scenes are fixed by
--seed; each of the SEEDS runs draws its own initial weights, stride
samples and augmentation rectangles (seeds --seed .. --seed + SEEDS - 1).
Writes one CSV row per configuration with, for AbsRel and delta1 over the
runs: the mean, the sample standard deviation and the median; the median
of the paired per-seed difference from the untrained `none` row; and the
number of seeds on which the configuration beats that row. Per-seed AbsRel
is heavy-tailed, so the medians and the paired columns are the ones to
rank rows by.

Usage: python scripts/run_ablation.py --out runs/ablation.csv
"""

import argparse
import csv

import numpy as np

from depthstream.data import Primitive, SceneSpec, generate_sequence
from depthstream.losses import TrainConfig, ablation_suite
from depthstream.model import DepthModel, ModelConfig

# a configuration beats `none` on a seed with a lower AbsRel or a higher
# delta1 than `none` reached from the same initial weights
BETTER = {"absrel": -1, "delta1": 1}
SEEDS = 5  # training runs per configuration


def scene(seed, frames, size):
    spec = SceneSpec(seed=seed, forward_velocity=0.2, primitives=[
        Primitive("plane", depth=40.0),
        Primitive("sphere", center=(0.5, 0.2, 8.0), radius=2.0,
                  velocity=(0.01, 0.0, 0.0))])
    return generate_sequence(spec, frames, size)


def summarize(runs: list[list[dict]]) -> list[dict]:
    """Per configuration, each metric's mean, sample std and median over
    the runs (each run is ablation_suite's list of rows, one seed each),
    the median of its per-seed difference from that seed's `none` row, and
    the number of seeds on which it beats that row."""
    base = [next(r for r in rows if r["config"] == "none") for rows in runs]
    out = []
    for rows in zip(*runs):
        summary = {"config": rows[0]["config"], "seeds": len(rows)}
        for m, sign in BETTER.items():
            values = np.array([r[m] for r in rows])
            diffs = values - [b[m] for b in base]
            summary[f"{m}_mean"] = float(np.mean(values))
            summary[f"{m}_std"] = float(np.std(values, ddof=1))
            summary[f"{m}_median"] = float(np.median(values))
            summary[f"{m}_vs_none"] = float(np.median(diffs))
            summary[f"{m}_wins"] = int(np.sum(sign * diffs > 0))
        out.append(summary)
    return out


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

    runs = []
    for seed in range(args.seed, args.seed + SEEDS):
        def factory():
            return DepthModel(ModelConfig(height=16, width=16, patch_size=4,
                                          encoder_channels=8,
                                          head_channels=8,
                                          num_motion_modules=2, context=16,
                                          seed=seed))

        cfg = TrainConfig(learning_rate=5e-2, steps=args.steps, seed=seed)
        runs.append(ablation_suite(factory, train_seqs, eval_pairs, cfg))
    rows = summarize(runs)
    with open(args.out, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    for row in rows:
        print(f"{row['config']:>22}: " + " ".join(
            f"{m} median={row[f'{m}_median']:.4f} "
            f"vs none {row[f'{m}_vs_none']:+.4f} "
            f"(wins {row[f'{m}_wins']}/{row['seeds']})" for m in BETTER))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Benchmark a change against its parent commit in alternating pairs.

Exports the parent commit's files with `git archive` into a work
directory, then runs benchmark/run.py for N pairs on every workload
BENCHMARK.json lists, one run on each side per pair: the parent first on
odd seeds, the change first on even seeds, so a slow stretch of a shared
host hits both sides alike. The change is this checkout's working tree.
Optionally one traced run per side and workload (seed 1) comes first.

Writes BENCH_<label>.json at the repo root: for every workload and
end-to-end metric of BENCHMARK.json, the pairs, the change's wins and the
ties, each side's quartiles, the ratio of the medians (change / parent),
the parent's interquartile range and whether the change's median is worse
than the parent's by more than the metric's bound; then every run's
result line.

    python3 scripts/bench_pairs.py --label fold --parent HEAD~1 \\
        --change "what the change does" --pairs 10 --seconds 45 \\
        --first-seed 21 --workdir /tmp/pairs
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
COMMAND = ("python3 benchmark/run.py --workload <workload> --seed <seed> "
           "--seconds <seconds> --trace <trace>")


def parse_result(stdout: str) -> tuple[dict, dict]:
    """A run's result (its last stdout line) and its record line."""
    lines = stdout.strip().splitlines()
    record = next((json.loads(line[len("record "):]) for line in lines
                   if line.startswith("record ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    return result, record


def _quartiles(values) -> list[float]:
    return [round(float(q), 6) for q in np.percentile(values, [25, 50, 75])]


def summarize(runs: list[dict], metrics: list[tuple[str, str]]) -> dict:
    """Per workload and metric, compare the two sides seed by seed.

    runs are {"side", "workload", "seed", "trace", "result"} dicts; only
    untraced runs count. metrics are (name, "lower" | "higher", bound)
    triples; a metric is beyond_bound when the change's median is worse
    than the parent's by more than bound times the parent's median.
    """
    summary: dict = {}
    timed = [r for r in runs if not r["trace"]]
    for workload in dict.fromkeys(r["workload"] for r in timed):
        sides = {side: {r["seed"]: r["result"] for r in timed
                        if r["workload"] == workload and r["side"] == side}
                 for side in ("parent", "change")}
        seeds = sorted(set(sides["parent"]) & set(sides["change"]))
        out = summary[workload] = {}
        for name, better, bound in metrics:
            pairs = [(sides["parent"][s]["metrics"][name]["value"],
                      sides["change"][s]["metrics"][name]["value"])
                     for s in seeds
                     if name in sides["parent"][s]["metrics"]
                     and name in sides["change"][s]["metrics"]]
            if not pairs:
                continue
            parent, change = np.array(pairs, dtype=np.float64).T
            wins = change < parent if better == "lower" else change > parent
            pq, cq = _quartiles(parent), _quartiles(change)
            worse = np.median(change) - np.median(parent)
            if better == "higher":
                worse = -worse
            out[name] = {
                "better": better,
                "pairs": len(pairs),
                "change_wins": int(wins.sum()),
                "ties": int((change == parent).sum()),
                "parent_q1_median_q3": pq,
                "change_q1_median_q3": cq,
                "median_ratio": round(cq[1] / pq[1], 4) if pq[1] else None,
                "parent_iqr": round(pq[2] - pq[0], 6),
                "bound": bound,
                "beyond_bound": bool(worse > bound * abs(np.median(parent))),
            }
        out["failed_ops"] = {side: sum(r["failed"]
                                       for r in sides[side].values())
                             for side in sides}
        out["all_correct"] = all(r["correct"] for side in sides.values()
                                 for r in side.values())
    return summary


def export(rev: str, dest: Path) -> str:
    """Write the files of commit rev into dest; returns its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                           check=True, capture_output=True,
                           text=True).stdout.strip()
    archive = dest.parent / f"{dest.name}.tar"
    subprocess.run(["git", "archive", "--output", str(archive), rev],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return short


def run_one(where: Path, workload: str, seed: int, seconds: float,
            trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", str(trace)], cwd=where, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        print(proc.stderr, file=sys.stderr)
    return parse_result(proc.stdout)


def _host(record: dict) -> str:
    env = record.get("env", {})
    return (f"{env.get('nproc', '?')}-vCPU {env.get('cpu_model', '?')}, "
            f"Python {env.get('python', '?')}, numpy "
            f"{env.get('numpy', '?')}, {env.get('blas_threads', '?')} BLAS "
            f"thread(s) (set by benchmark/run.py)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--change", required=True, help="what the change does")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--first-seed", type=int, default=11)
    ap.add_argument("--traced-seconds", type=float, default=0,
                    help="one traced seed-1 run per side first (0: none)")
    ap.add_argument("--workdir", type=Path, default=None,
                    help="where the parent is exported (default: a "
                         "temporary directory)")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"], m["bound"])
               for m in bench["end_to_end"]]
    workloads = [w["name"] for w in bench["workloads"]]

    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=args.workdir))
    try:
        parent_dir = work / "parent"
        parent = export(args.parent, parent_dir)
        where = {"parent": parent_dir, "change": ROOT}
        runs, traced, record = [], {}, {}
        seeds = range(args.first_seed, args.first_seed + args.pairs)

        def run(side, workload, seed, seconds, trace):
            nonlocal record
            result, rec = run_one(where[side], workload, seed, seconds,
                                  trace)
            record = record or rec
            runs.append({"side": side, "workload": workload, "seed": seed,
                         "seconds": seconds, "trace": trace,
                         "result": result})
            print(f"{workload} seed {seed} trace {trace} {side}: "
                  f"correct={result['correct']}", flush=True)
            return result

        for workload in workloads:
            if args.traced_seconds:
                traced[f"traced_{workload}_seed1"] = {
                    side: {n: round(m["value"], 4) for n, m in
                           run(side, workload, 1, args.traced_seconds,
                               1)["metrics"].items()}
                    for side in ("parent", "change")}
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else \
                    ("change", "parent")
                for side in order:
                    run(side, workload, seed, args.seconds, 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    doc = {
        "label": args.label,
        "change": args.change,
        "parent_commit": parent,
        "host": _host(record),
        "command": COMMAND,
        "protocol": (f"each workload: {args.pairs} pairs, seeds "
                     f"{seeds.start}-{seeds.stop - 1}, {args.seconds:g} s "
                     f"runs, parent first on odd seeds and change first on "
                     f"even seeds; workloads in the order "
                     f"{', '.join(workloads)}"
                     + (f"; one traced {args.traced_seconds:g} s seed-1 run "
                        f"per side before each workload's pairs"
                        if args.traced_seconds else "")),
        "summary": summarize(runs, metrics),
        **traced,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

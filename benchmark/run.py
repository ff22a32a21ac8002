"""Run one benchmark workload against the depthstream library in ../src.

    python3 benchmark/run.py --workload stream_small --seed 1 --seconds 20 --trace 0

Workloads: stream_small, stream_large, train_clips (see DESIGN.md;
BENCHMARK.json lists the two whose timings hold still on a shared host). With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it reports
the per-layer metrics of a traced run. Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A record of the run (environment, exact
model config, checks) and, for traced runs, the spans are written under
benchmark/out/.

Exit codes: 0 every oracle passed, 1 an oracle failed, 2 the library
source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("stream_small", "stream_large", "train_clips")
# one BLAS thread: the matrices are small (at most 1024 x 64), and a
# second thread on a two-core box mostly adds run-to-run spread
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The 256x256 stream allocates and frees about 29 MiB of large temporaries
# per frame. With glibc's default, adaptive mmap and trim thresholds,
# whether those fault in fresh pages depends on the allocation history
# (frame time flipped between about 22 and 50 ms with unrelated changes
# in the harness) and on the host's supply of free huge pages. Fixed
# thresholds keep freed memory in the heap, and numpy's huge-page hint is
# off, so every run measures the same allocator behaviour.
PROCESS_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0",
               **{var: str(BLAS_THREADS) for var in BLAS_ENV}}
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOPTS = ((M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 1 << 30))
E2E_METRICS = (("op_ms_p95", "ms"), ("frames_per_s_p10", "1/s"),
               ("batch_ms_per_frame_p90", "ms"), ("cache_bytes", "bytes"),
               ("setup_s", "s"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _blas_threads(np) -> int | None:
    """Thread count the bundled OpenBLAS reports, if it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def pin_allocator() -> bool:
    """Fix glibc's malloc thresholds; False where there is no mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], \
        ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in MALLOPTS)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(np, allocator_pinned: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(np),
        "blas_threads_requested": BLAS_THREADS,
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "malloc_thresholds_pinned": allocator_pinned,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "depthstream" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PROCESS_ENV)
    pinned = pin_allocator()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import depthstream
    import workloads

    if Path(depthstream.__file__).resolve().parent != SRC / "depthstream":
        print(f"error: imported depthstream from {depthstream.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2

    run_dir = OUT / f"run-{os.getpid()}"
    try:
        res = workloads.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        wanted = [(n, u) for n, u, *_ in workloads.LAYER_METRICS]
        wanted.append(workloads.TRACE_OVERHEAD)
    else:
        wanted = list(E2E_METRICS)
    missing = [n for n, _ in wanted if n not in res.metrics]
    if missing:
        res.check("all_metrics_reported", False, f"missing {missing}")

    tracer = res.notes.pop("tracer", None)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "config": res.config, "env": environment(np, pinned),
              "notes": res.notes}
    print(f"depthstream benchmark: workload={args.workload} "
          f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("record " + json.dumps(record, sort_keys=True))
    for name, passed, detail in res.checks:
        print(f"check {name}: {'PASS' if passed else 'FAIL'} {detail}")
    for name, unit in wanted:
        if name in res.metrics:
            value, _, n = res.metrics[name]
            alias = res.aliases.get(name)
            label = f"{alias} ({name})" if alias else name
            print(f"metric {label} = {_fmt(value)} {unit} [n={n}]")
    for name, (value, unit, n) in res.info.items():
        alias = res.aliases.get(name)
        label = f"{alias} ({name})" if alias else name
        print(f"info {label} = {_fmt(value)} {unit} [n={n}] "
              f"(not reported: see DESIGN.md)")
    fail_rate = res.failed / max(1, res.attempted)
    print(f"metric fail_rate = {res.failed}/{res.attempted} = {fail_rate:g}")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = dict(record, checks=res.checks, attempted=res.attempted,
                failed=res.failed, aliases=res.aliases,
                metrics={n: {"value": v, "unit": u, "n": k}
                         for n, (v, u, k) in res.metrics.items()})
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if tracer is not None:
        spans = [dict(zip(("id", "parent", "name", "start_ns", "end_ns",
                           "self_ns"), s)) for s in tracer.spans]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    metrics = {n: {"value": res.metrics[n][0], "unit": u}
               for n, u in wanted if n in res.metrics}
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads, their seeded inputs and their oracles.

Every workload is a closed loop against the library's public API: one
caller sends one frame (or one training step) and waits for the result.
Inputs come only from the workload seed. Oracles run outside the timed
loop and every failure is counted against the operations attempted.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from depthstream import losses as L
from depthstream import model as M
from depthstream import tensor as T
from depthstream.data import Primitive, SceneSpec, generate_sequence

from tracer import TENSOR_FAMILIES, NullTracer, Tracer, installed

EQUIV_TOL = 1e-5      # the pinned stream-vs-batch gate of the test suite
CONTEXT = 16
STRIDES = (1, 2, 3, 4)
SCENE_FRAMES = 64     # train_clips scenes; stride s gives ceil(64/s) frames
TRAIN_SCENES = 4
TRAIN_LR = 0.1        # constant rate; large enough that the loss falls
MIN_TRAIN_CYCLES = 5  # the loss falls reliably only after a few cycles
SMALL_CLIPS = 8       # stream_small clip pool, cycled by the timed loop
LARGE_POOL = 48       # stream_large frames, cycled by the one long stream
LARGE_SELFTEST = 24   # prefix for the band c-1 self-test on stream_large
LARGE_BATCH = 24     # stream_large batch pass: the pool's first frames
LARGE_BATCH_PASSES = 2  # per 48-frame cycle, for enough samples of it
TRACE_LARGE_FRAMES = 40
TRACE_LARGE_BATCH = 24
# The shared host runs at a normal speed with bursts about 40% faster that
# last from a second to tens of seconds, and their share of a run differs
# from run to run. A run's median lands in whichever mode holds more of
# it, so the timing metrics read the slow mode instead: per-operation
# times at their 95th percentile, and windows of several operations (a
# pass, a clip pool, 16 frames or a training cycle) at their 90th
# percentile time, i.e. their 10th percentile rate.
OP_PCT = 95
WINDOW_PCT = 90

_BASE = dict(patch_size=8, encoder_channels=24, num_motion_modules=2,
             context=CONTEXT, cache_modulus=1, precision="fp32")
CONFIGS = {
    "stream_small": dict(_BASE, height=32, width=32, head_channels=16),
    "stream_large": dict(_BASE, height=256, width=256, head_channels=64),
    "train_clips": dict(_BASE, height=32, width=32, head_channels=16),
}
# a tiny full head (both motion modules) for the float64 gradcheck
GRADCHECK_CONFIG = dict(height=8, width=8, patch_size=4, encoder_channels=4,
                        head_channels=4, num_motion_modules=2, context=2,
                        seed=0)
GRADCHECK_FRAMES = 3


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


# --- inputs -------------------------------------------------------------

def render_scene(rng: np.random.Generator, frames: int, size: int):
    """A seeded forward-moving scene: rgb, inverse depth and validity."""
    prims = [Primitive("plane", depth=float(rng.uniform(30.0, 60.0)))]
    for _ in range(int(rng.integers(1, 4))):
        center = (float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)),
                  float(rng.uniform(15.0, 28.0)))
        velocity = (float(rng.uniform(-0.03, 0.03)),
                    float(rng.uniform(-0.03, 0.03)), 0.0)
        if rng.random() < 0.5:
            prims.append(Primitive("sphere", center=center, velocity=velocity,
                                   radius=float(rng.uniform(1.0, 2.5))))
        else:
            half = tuple(float(v) for v in rng.uniform(0.5, 1.5, 3))
            prims.append(Primitive("box", center=center, size=half,
                                   velocity=velocity))
    spec = SceneSpec(seed=int(rng.integers(2**31)),
                     forward_velocity=float(rng.uniform(0.05, 0.15)),
                     primitives=prims)
    rgb, depth, valid = generate_sequence(spec, frames, (size, size))
    return rgb, (1.0 / depth).astype(np.float32), valid


@dataclass
class Inputs:
    cfg: M.ModelConfig
    clips: list            # stream: rgb clips; train: (rgb, gt, valid)
    held_out: tuple | None = None
    checkpoint: Path | None = None


def make_inputs(workload: str, seed: int, out_dir: Path) -> Inputs:
    """Everything a run feeds the library, from the seed alone.

    Stream workloads also get a checkpoint of a seeded model, written to
    out_dir, which their set-up loads.
    """
    cfg = M.ModelConfig(**CONFIGS[workload], seed=seed)
    if workload == "stream_small":
        rng = _rng(seed, 1)
        lengths = np.linspace(2 * CONTEXT, 4 * CONTEXT, SMALL_CLIPS).round()
        clips = [render_scene(rng, int(n), cfg.height)[0] for n in lengths]
    elif workload == "stream_large":
        clips = [render_scene(_rng(seed, 2), LARGE_POOL, cfg.height)[0]]
    else:
        rng = _rng(seed, 3)
        clips = [render_scene(rng, SCENE_FRAMES, cfg.height)
                 for _ in range(TRAIN_SCENES)]
        held = render_scene(rng, 3 * CONTEXT, cfg.height)
        return Inputs(cfg, clips, held_out=held)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "model.ckpt"
    M.save_checkpoint(M.DepthModel(cfg), ckpt)
    return Inputs(cfg, clips, checkpoint=ckpt)


# --- results ------------------------------------------------------------

@dataclass
class Result:
    seed: int
    config: dict
    metrics: dict = field(default_factory=dict)  # name -> (value, unit, n)
    aliases: dict = field(default_factory=dict)  # name -> workload's name
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)   # (name, passed, detail)
    info: dict = field(default_factory=dict)     # printed, not in the JSON
    notes: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = ""):
        self.attempted += 1
        self.failed += int(not passed)
        self.checks.append((name, bool(passed), detail))

    def ops(self, attempted: int, failed: int = 0):
        self.attempted += attempted
        self.failed += failed

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _report_exception(where: str):
    print(f"error in {where}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _pcts(samples_ms):
    return (float(np.percentile(samples_ms, 50)),
            float(np.percentile(samples_ms, OP_PCT)))


def _finite(a) -> bool:
    return bool(np.isfinite(a).all())


# --- shared pieces ------------------------------------------------------

def setup_stream(ckpt: Path, repeats: int, tracer=None):
    """load_checkpoint + first new_session, `repeats` times.

    Returns the last model and the set-up times in seconds. Both calls are
    looked up through the module at call time, so a tracer sees them.
    """
    tracer = tracer or NullTracer()
    times = []
    model = None
    for _ in range(repeats):
        with tracer.root("setup"):
            t0 = time.perf_counter()
            model, _ = M.load_checkpoint(ckpt)
            model.new_session()
            times.append(time.perf_counter() - t0)
    return model, times


def batch_pass(model, feats, band: int, tracer=None):
    """One banded head_forward_batch pass; returns outputs and seconds."""
    tracer = tracer or NullTracer()
    with tracer.root("batch", units=len(feats)):
        t0 = time.perf_counter()
        out = model.head_forward_batch(feats, context=band).data
        dt = time.perf_counter() - t0
    return out, dt


def stream_frames(model, frames, tracer=None, times=None):
    """Stream frames through a new session; returns outputs and session."""
    tracer = tracer or NullTracer()
    session = model.new_session()
    outs = []
    for f in frames:
        t0 = time.perf_counter()
        with tracer.root("frame"):
            outs.append(session.step_rgb(f))
        if times is not None:
            times.append(time.perf_counter() - t0)
    return np.stack(outs), session


def stream_vs_batch(model, frames, stream_out, band: int):
    """Largest |stream - batch| with band `band`, and whether both are
    finite."""
    feats = model.encoder.encode_sequence(frames)
    batch, _ = batch_pass(model, feats, band)
    finite = _finite(batch) and _finite(stream_out)
    return float(np.max(np.abs(batch - stream_out))), finite


def _equiv_check(res: Result, name: str, diff: float, finite: bool):
    res.check(name, finite and diff <= EQUIV_TOL,
              f"max|stream-batch|={diff:.2e} <= {EQUIV_TOL}, finite={finite}")


def _selftest(res: Result, model, frames, stream_out):
    """The oracle must reject a stream compared against band c-1."""
    diff, _ = stream_vs_batch(model, frames, stream_out, CONTEXT - 1)
    res.check("selftest_band_c_minus_1_fails", diff > EQUIV_TOL,
              f"band {CONTEXT - 1}: max|stream-batch|={diff:.2e} must "
              f"exceed {EQUIV_TOL}")


def _set_e2e_metrics(res: Result, op_ms, frames, wall_s, window_fps,
                     setup_s):
    """End-to-end metrics from per-op times, per-window rates and set-up
    times; the run's p50 and mean rate are printed but not reported."""
    p50, p95 = _pcts(op_ms)
    n = len(op_ms)
    res.metrics.update({
        "op_ms_p95": (p95, "ms", n),
        "frames_per_s_p10": (float(np.percentile(window_fps,
                                                 100 - WINDOW_PCT)),
                             "1/s", len(window_fps)),
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
    })
    res.info.update({
        "op_ms_p50": (p50, "ms", n),
        "frames_per_s_mean": (frames / wall_s, "1/s", frames),
    })


def _set_batch_metric(res: Result, batch_ms):
    res.metrics["batch_ms_per_frame_p90"] = (
        float(np.percentile(batch_ms, WINDOW_PCT)), "ms", len(batch_ms))
    res.info["batch_ms_per_frame_p50"] = (statistics.median(batch_ms), "ms",
                                          len(batch_ms))


STREAM_ALIASES = dict(op_ms_p50="frame_ms_p50", op_ms_p95="frame_ms_p95",
                      frames_per_s_p10="stream_fps_p10",
                      frames_per_s_mean="stream_fps")
TRAIN_ALIASES = dict(op_ms_p50="step_ms_p50", op_ms_p95="step_ms_p95",
                     frames_per_s_p10="train_frames_per_s_p10",
                     frames_per_s_mean="train_frames_per_s")


def stream_segment(model, stream_clips, batch_clips):
    """The traced run's fixed segment: stream every clip, each in a new
    session, then one batch pass over every batch clip."""
    feats = [model.encoder.encode_sequence(c) for c in batch_clips]

    def segment(tracer):
        times = []
        outs = [stream_frames(model, c, tracer, times)[0]
                for c in stream_clips]
        outs += [batch_pass(model, f, CONTEXT, tracer)[0] for f in feats]
        return outs, times

    return segment


# --- stream_small -------------------------------------------------------

def run_stream_small(inp: Inputs, seconds: float, res: Result, trace: bool):
    clips = inp.clips
    res.aliases.update(STREAM_ALIASES)
    model, _ = setup_stream(inp.checkpoint, 1)
    with T.finite_checks(False):
        # untimed reference pass: warms up, and is what the batch oracle
        # and every later repeat of a clip are compared against
        refs = [stream_frames(model, clip)[0] for clip in clips]
        if trace:
            trace_run(res, seconds, stream_segment(model, clips, clips),
                      "frame", "batch",
                      lambda tr: setup_stream(inp.checkpoint, 5, tr))
        else:
            _time_stream_small(model, inp.checkpoint, clips, refs, seconds,
                               res)
        for k, clip in enumerate(clips):
            diff, finite = stream_vs_batch(model, clip, refs[k], CONTEXT)
            _equiv_check(res, f"stream_vs_batch_clip{k}", diff, finite)
        _selftest(res, model, clips[0], refs[0])


def _time_stream_small(model, ckpt, clips, refs, seconds, res):
    """Rounds of one set-up, one clip streamed and one batch pass.

    Interleaving spreads each metric's samples over the whole run, so a
    slow stretch of a shared machine hits all of them alike. The run ends
    after a whole number of pool cycles; each cycle is one rate window.
    """
    feats = [model.encoder.encode_sequence(c) for c in clips]
    frame_ms, batch_ms, setup_s = [], [], []
    clip_wall, clip_frames = [], []
    failed, k = 0, 0
    cache_bytes = 0
    deadline = time.perf_counter() + seconds
    while k % len(clips) or time.perf_counter() < deadline:
        j = k % len(clips)
        setup_s += setup_stream(ckpt, 1)[1]
        times = []
        t0 = time.perf_counter()
        try:
            out, session = stream_frames(model, clips[j], times=times)
            cache_bytes = session.memory_footprint()
        except Exception:
            _report_exception(f"stream_small clip {k}")
            out = None
        clip_wall.append(time.perf_counter() - t0)
        clip_frames.append(len(clips[j]))
        frame_ms += [_ms(t) for t in times]
        if out is None:
            failed += len(clips[j]) - len(times)
        else:
            failed += int(np.sum(~np.isfinite(out).all(axis=(1, 2))
                                 | (out != refs[j]).any(axis=(1, 2))))
        _, dt = batch_pass(model, feats[j], CONTEXT)
        batch_ms.append(_ms(dt) / len(clips[j]))
        k += 1
    n = len(clips)
    window_fps = [sum(clip_frames[i:i + n]) / sum(clip_wall[i:i + n])
                  for i in range(0, k, n)]
    frames = sum(clip_frames)
    res.ops(frames, failed)
    res.notes["clips_streamed"] = k
    _set_e2e_metrics(res, frame_ms, frames, sum(clip_wall), window_fps,
                     setup_s)
    _set_batch_metric(res, batch_ms)
    res.metrics["cache_bytes"] = (cache_bytes, "bytes", 1)


# --- stream_large -------------------------------------------------------

def run_stream_large(inp: Inputs, seconds: float, res: Result, trace: bool):
    pool = inp.clips[0]
    res.aliases.update(STREAM_ALIASES)
    model, _ = setup_stream(inp.checkpoint, 1)
    with T.finite_checks(False):
        stream_frames(model, pool[:4])  # warm-up
        if trace:
            ref, _ = stream_frames(model, pool)
            segment = stream_segment(model, [pool[:TRACE_LARGE_FRAMES]],
                                     [pool[:TRACE_LARGE_BATCH]])
            trace_run(res, seconds, segment, "frame", "batch",
                      lambda tr: setup_stream(inp.checkpoint, 5, tr))
        else:
            ref = _time_stream_large(model, inp.checkpoint, pool, seconds,
                                     res)
        diff, finite = stream_vs_batch(model, pool, ref, CONTEXT)
        _equiv_check(res, "stream_vs_batch_first_cycle", diff, finite)
        n = LARGE_SELFTEST
        _selftest(res, model, pool[:n], ref[:n])


def _time_stream_large(model, ckpt, pool, seconds, res):
    """One long stream cycling the pool; returns the first cycle's output.

    At each cycle boundary, outside the stream's wall time, set-ups and
    batch passes over the pool's first LARGE_BATCH frames are sampled, so
    those samples spread over the run. Every CONTEXT streamed frames are
    one rate window; the first also holds the session's creation. Later
    cycles are checked against
    the first: once a frame's whole receptive field (num_modules * (c-1)
    earlier frames) lies inside one cycle, its input history is the first
    cycle's, so its output must be too.
    """
    n_pool = len(pool)
    assert n_pool % CONTEXT == 0, "cycles must end on a window boundary"
    feats = model.encoder.encode_sequence(pool[:LARGE_BATCH])
    settled = model.cfg.num_motion_modules * (CONTEXT - 1)
    first = np.full((n_pool, *pool.shape[1:3]), np.nan, dtype=np.float32)
    frame_ms, batch_ms, setup_s, window_fps = [], [], [], []
    wall, failed, i = 0.0, 0, 0
    deadline = time.perf_counter() + seconds
    t0 = win0 = time.perf_counter()
    session = model.new_session()
    while True:
        pos = i % n_pool
        a = time.perf_counter()
        try:
            out = session.step_rgb(pool[pos])
        except Exception:
            _report_exception(f"stream_large frame {i}")
            failed += 1
            wall += time.perf_counter() - t0
            break
        frame_ms.append(_ms(time.perf_counter() - a))
        i += 1
        if i <= n_pool:
            first[pos] = out
            failed += int(not _finite(out))
        elif not _finite(out) or (pos >= settled
                                  and not np.array_equal(out, first[pos])):
            failed += 1
        if i % CONTEXT == 0:
            now = time.perf_counter()
            window_fps.append(CONTEXT / (now - win0))
            win0 = now
        if i % n_pool == 0:
            wall += time.perf_counter() - t0
            setup_s += setup_stream(ckpt, 3)[1]
            for _ in range(LARGE_BATCH_PASSES):
                _, dt = batch_pass(model, feats, CONTEXT)
                batch_ms.append(_ms(dt) / LARGE_BATCH)
            if time.perf_counter() >= deadline:
                break
            t0 = win0 = time.perf_counter()
    res.ops(i + (failed and i < n_pool), failed)
    _set_e2e_metrics(res, frame_ms, len(frame_ms), wall, window_fps,
                     setup_s)
    _set_batch_metric(res, batch_ms)
    res.metrics["cache_bytes"] = (session.memory_footprint(), "bytes", 1)
    return first


# --- train_clips --------------------------------------------------------

def _subseed(seed: int, *tags: int) -> int:
    return int(_rng(seed, *tags).integers(2**31))


def build_trainer(inp: Inputs, seed: int):
    """A fresh model and one Trainer per stride, all sharing the model.

    One Trainer per stride, stepped round-robin, fixes the mix of clip
    lengths (64, 32, 22, 16 frames) that a single Trainer would sample.
    """
    model = M.DepthModel(inp.cfg)
    trainers = [
        L.Trainer(model, inp.clips, L.LossWeights(1.0, 1.0, 1.0),
                  L.TrainConfig(learning_rate=TRAIN_LR, cosine_schedule=False,
                                strides=(s,), seed=_subseed(seed, 4, s)),
                  L.AugmentConfig(enabled=True))
        for s in STRIDES]
    return model, trainers


def _clip_frames(stride: int) -> int:
    return math.ceil(SCENE_FRAMES / stride)


def train_cycle(trainers, tracer=None, times=None, losses=None):
    """One step of each stride's Trainer."""
    tracer = tracer or NullTracer()
    for trainer in trainers:
        t0 = time.perf_counter()
        with tracer.root("step"):
            rec = trainer.run(1)[-1]
        if times is not None:
            times.append(time.perf_counter() - t0)
        if losses is not None:
            losses.append(rec["loss"])


def eval_loss(model, scenes, seed: int) -> float:
    """Full three-term loss on the training distribution: every scene at
    every stride, augmented with a fixed draw so that runs compare."""
    rng = _rng(seed, 5)
    total = []
    for rgb, gt, valid in scenes:
        for s in STRIDES:
            frames = L.frame_augment(rgb[::s], L.AugmentConfig(), rng)
            pred = model.head_forward_batch(
                model.encoder.encode_sequence(frames))
            total.append(L.loss_total(pred, gt[::s], valid[::s]).item())
    return float(np.mean(total))


def head_gradcheck() -> dict:
    """float64 finite-difference check of the full head loss, tiny model."""
    cfg = M.ModelConfig(**GRADCHECK_CONFIG)
    model = M.DepthModel(cfg)
    rng = np.random.default_rng(0)
    rgb = rng.random((GRADCHECK_FRAMES, cfg.height, cfg.width, 3))
    feats = model.encoder.encode_sequence(rgb.astype(np.float32))
    gt = rng.uniform(0.5, 2.0, (GRADCHECK_FRAMES, cfg.height, cfg.width))
    valid = np.ones(gt.shape, dtype=bool)
    params = [p for _, p in model.head_parameters()]
    return T.gradcheck(
        lambda: L.loss_total(model.head_forward_batch(feats), gt, valid),
        params)


def run_train_clips(inp: Inputs, seconds: float, res: Result, trace: bool):
    res.aliases.update(TRAIN_ALIASES)
    model, trainers = build_trainer(inp, res.seed)
    train_cycle(build_trainer(inp, res.seed + 1)[1])  # warm-up
    if trace:
        def segment(tracer):
            seg_model, seg_trainers = build_trainer(inp, res.seed)
            times, losses = [], []
            train_cycle(seg_trainers, tracer, times, losses)
            params = [p.data for _, p in seg_model.head_parameters()]
            return [np.array(losses), *params], times

        trace_run(res, seconds, segment, "step", "step", None)
        train_cycle(trainers)  # the held-out check runs on trained weights
    else:
        before = eval_loss(model, inp.clips, res.seed)
        _time_train(inp, model, trainers, seconds, res)
        after = eval_loss(model, inp.clips, res.seed)
        res.check("loss_falls", after < before,
                  f"eval loss {before:.6f} -> {after:.6f}")
    rgb = inp.held_out[0]
    with T.finite_checks(False):
        out, session = stream_frames(model, rgb)
        diff, finite = stream_vs_batch(model, rgb, out, CONTEXT)
        _equiv_check(res, "held_out_stream_vs_batch", diff, finite)
        _selftest(res, model, rgb, out)
    if not trace:
        res.metrics["cache_bytes"] = (session.memory_footprint(), "bytes", 1)
    gc = head_gradcheck()
    res.check("head_loss_gradcheck_f64", gc["passed"],
              f"max rel err {gc['max_rel_err']:.2e}")


def _time_train(inp: Inputs, model, trainers, seconds, res: Result):
    """Rounds of one set-up, one step per stride and three batch passes
    over the held-out clip, interleaved as in the stream workloads. The
    steps of a round are one rate window."""
    held = model.encoder.encode_sequence(inp.held_out[0])
    step_ms, batch_ms, setup_s, window_fps = [], [], [], []
    wall, frames, failed, steps = 0.0, 0, 0, 0
    deadline = time.perf_counter() + seconds
    while (steps < MIN_TRAIN_CYCLES * len(STRIDES)
           or time.perf_counter() < deadline):
        t0 = time.perf_counter()
        build_trainer(inp, res.seed)
        setup_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        win_frames = 0
        for s, trainer in zip(STRIDES, trainers):
            a = time.perf_counter()
            try:
                loss = trainer.run(1)[-1]["loss"]
            except Exception:
                _report_exception(f"train_clips step {steps}")
                loss = float("nan")
            step_ms.append(_ms(time.perf_counter() - a))
            failed += int(not math.isfinite(loss))
            win_frames += _clip_frames(s)
            steps += 1
        dt = time.perf_counter() - t0
        wall += dt
        frames += win_frames
        window_fps.append(win_frames / dt)
        with T.finite_checks(False):
            for _ in range(3):
                _, dt = batch_pass(model, held, CONTEXT)
                batch_ms.append(_ms(dt) / len(held))
    res.ops(steps, failed)
    _set_e2e_metrics(res, step_ms, frames, wall, window_fps, setup_s)
    _set_batch_metric(res, batch_ms)


# --- traced run ---------------------------------------------------------

LAYER_METRICS = [
    # name, unit, root ("op", "batch" or "call"), family, field
    ("model.encode_ms", "ms", "op", "model.encode", "incl"),
    ("model.load_checkpoint_ms", "ms", "call", "model.load_checkpoint",
     "incl"),
    ("model.new_session_ms", "ms", "call", "model.new_session", "incl"),
    ("model.head_batch_ms", "ms", "batch", "model.head_batch", "incl"),
    ("motion.stream_self_ms", "ms", "op", "motion.stream", "self"),
    ("motion.attend_ms", "ms", "op", "motion.attend", "incl"),
    ("motion.batch_ms", "ms", "batch", "motion.batch", "incl"),
    ("cache.push_ms", "ms", "op", "cache.push", "incl"),
    ("cache.window_ms", "ms", "op", "cache.window", "incl"),
    ("cache.window_bytes", "bytes", "op", "cache.window", "bytes"),
    ("cache.evictions", "count", "op", "cache.push", "evictions"),
    ("cache.fill", "count", "call", "cache.window", "fill"),
    ("tensor.ops", "count", "op", "tensor.*", "calls"),
    ("tensor.out_bytes", "bytes", "op", "tensor.*", "bytes"),
    ("tensor.linear_ms", "ms", "op", "tensor.linear", "self"),
    ("tensor.bmm_ms", "ms", "op", "tensor.bmm", "self"),
    ("tensor.softmax_ms", "ms", "op", "tensor.softmax", "self"),
    ("tensor.layer_norm_ms", "ms", "op", "tensor.layer_norm", "self"),
    ("tensor.movement_ms", "ms", "op", "tensor.movement", "self"),
    ("tensor.elementwise_ms", "ms", "op", "tensor.elementwise", "self"),
    ("tensor.backward_ms", "ms", "op", "tensor.backward", "incl"),
    ("tensor.tape_nodes", "count", "op", "tensor.record", "calls"),
    ("losses.ssi_ms", "ms", "op", "losses.ssi", "incl"),
    ("losses.tgm_ms", "ms", "op", "losses.tgm", "incl"),
    ("losses.sascon_ms", "ms", "op", "losses.sascon", "incl"),
    ("losses.augment_ms", "ms", "op", "losses.augment", "incl"),
    ("losses.train_step_ms", "ms", "op", "losses.train_step", "incl"),
]
TRACE_OVERHEAD = ("trace.overhead_ms", "ms")


def _field(st, fld: str) -> float:
    if fld == "incl":
        return st.incl_ns / 1e6
    if fld == "self":
        return st.self_ns / 1e6
    if fld == "calls":
        return st.calls
    return st.extra[fld]


def layer_metrics(tr: Tracer, op_root: str, batch_root: str) -> dict:
    """Per-layer metrics per operation (frame or step) of their root.

    A layer the workload does not exercise reads 0.
    """
    tensor_fams = sorted(set(TENSOR_FAMILIES.values()))
    out = {}
    for name, unit, where, fam, fld in LAYER_METRICS:
        if where == "call":
            st = tr.family_total(fam)
            denom = st.calls
        else:
            root = op_root if where == "op" else batch_root
            denom = tr.units[root]
            if fam == "tensor.*":
                st_list = [tr.stat(root, f) for f in tensor_fams]
                value = sum(_field(s, fld) for s in st_list)
                out[name] = (value / denom if denom else 0.0, unit, denom)
                continue
            st = tr.stat(root, fam)
        out[name] = (_field(st, fld) / denom if denom else 0.0, unit, denom)
    return out


def _same(a, b) -> bool:
    return len(a) == len(b) and all(
        x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in zip(a, b))


def trace_run(res: Result, seconds: float, segment, op_root: str,
              batch_root: str, setup, min_pairs: int = 2):
    """Alternate untraced and traced passes of one fixed segment.

    The segment is deterministic, so counts repeat exactly. Traced outputs
    must be bit-identical to the untraced ones; the tracing overhead is the
    difference of the two sides' median per-operation p50.
    """
    tracer = Tracer(keep_spans=True)
    absent: list[str] = []
    if setup is not None:
        with installed(tracer) as absent:
            setup(tracer)
    ref, _ = segment(NullTracer())
    plain_p50, traced_p50, mismatched = [], [], 0
    deadline = time.perf_counter() + seconds
    while len(traced_p50) < min_pairs or time.perf_counter() < deadline:
        _, times = segment(NullTracer())
        plain_p50.append(_pcts([_ms(t) for t in times])[0])
        with installed(tracer) as absent:
            outs, times = segment(tracer)
        tracer.keep_spans = False  # spans of the first traced pass only
        traced_p50.append(_pcts([_ms(t) for t in times])[0])
        mismatched += not _same(ref, outs)
    passes = len(traced_p50)
    res.ops(passes, mismatched)
    res.check("traced_outputs_bit_identical", mismatched == 0,
              f"{passes - mismatched}/{passes} traced passes identical to "
              f"the untraced reference")
    res.metrics.update(layer_metrics(tracer, op_root, batch_root))
    overhead = statistics.median(traced_p50) - statistics.median(plain_p50)
    res.metrics[TRACE_OVERHEAD[0]] = (overhead, TRACE_OVERHEAD[1], passes)
    res.notes["absent_spans"] = absent
    res.notes["traced_passes"] = passes
    res.notes["tracer"] = tracer


RUNNERS = {
    "stream_small": run_stream_small,
    "stream_large": run_stream_large,
    "train_clips": run_train_clips,
}


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> Result:
    inp = make_inputs(workload, seed, out_dir)
    res = Result(seed, asdict(inp.cfg))
    try:
        RUNNERS[workload](inp, seconds, res, trace)
    except Exception:
        _report_exception(workload)
        res.check("run_completed", False, "raised; see stderr")
    return res

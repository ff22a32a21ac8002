"""End-to-end toy depth pipeline.

A frozen patchify encoder feeds a trainable head that alternates per-frame
MLP blocks with temporal attention modules, finishing in a per-patch
inverse-depth readout upsampled to full resolution. One head body runs
batched (training, banded mask) or frame-by-frame (streaming, cached
windows); the two are equivalent.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .cache import _DTYPES, CacheBank
from .motion import MotionModuleParams, fold, motion_module_forward_batch, \
    motion_module_forward_stream
from .tensor import Tensor

__all__ = ["ModelConfig", "EncoderStub", "DepthModel", "StreamingSession",
           "save_checkpoint", "load_checkpoint", "CHECKPOINT_MAGIC"]

CHECKPOINT_MAGIC = b"DSTM0002"


@dataclass
class ModelConfig:
    height: int = 32
    width: int = 32
    patch_size: int = 8
    encoder_channels: int = 24
    head_channels: int = 16
    num_motion_modules: int = 2
    context: int = 16
    cache_modulus: int = 1
    precision: str = "fp32"
    seed: int = 0
    # multi-scale fusion factors of the full-size head; recorded for
    # documentation, only the single unit scale is exercised here
    fusion_factors: tuple = (4, 2, 1, 0.5)

    def __post_init__(self):
        ints = [f.name for f in fields(self) if f.type == "int"]
        for name in ints:  # 16.5, "16", None and True are not integers
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        small = [n for n in ints if n != "seed" and getattr(self, n) < 1]
        if small:
            raise ValueError(f"{', '.join(small)} must be >= 1")
        if self.height % self.patch_size or self.width % self.patch_size:
            raise ValueError("height/width must be divisible by patch size")
        if self.precision not in _DTYPES:
            raise ValueError(f"precision must be one of {list(_DTYPES)}")

    @property
    def tokens(self) -> int:
        return (self.height // self.patch_size) * (self.width // self.patch_size)


class EncoderStub:
    """Frozen patchify-and-project encoder (a seeded model draws its
    weights, see _layout).

    Features are strictly per-frame: no temporal state, identical input
    frame gives identical features.
    """

    def __init__(self, cfg: ModelConfig, weight: np.ndarray,
                 bias: np.ndarray):
        self.weight = np.asarray(weight, dtype=np.float32)
        self.bias = np.asarray(bias, dtype=np.float32)
        self.cfg = cfg

    def encode_frame(self, rgb: np.ndarray) -> np.ndarray:
        """rgb [H, W, 3] in [0, 1] -> token features [S, C_enc]."""
        return self.encode_sequence(rgb[None])[0]

    def encode_sequence(self, rgb_seq: np.ndarray) -> np.ndarray:
        """rgb [N, H, W, 3] in [0, 1] -> token features [N, S, C_enc], in
        one stacked product whose frames match encode_frame's bit for bit."""
        cfg = self.cfg
        p = cfg.patch_size
        if rgb_seq.shape[1:] != (cfg.height, cfg.width, 3):
            raise ValueError(f"expected [N, {cfg.height}, {cfg.width}, 3], "
                             f"got {rgb_seq.shape}")
        n = len(rgb_seq)
        patches = rgb_seq.astype(np.float32, copy=False).reshape(
            n, cfg.height // p, p, cfg.width // p, p, 3)
        patches = patches.transpose(0, 1, 3, 2, 4, 5).reshape(
            n, cfg.tokens, 3 * p * p)
        return patches @ self.weight + self.bias


@dataclass
class _FrameBlock:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def forward(self, x: Tensor) -> Tensor:
        h = T.relu(T.linear(x, self.w1, self.b1))
        return T.add(x, T.linear(h, self.w2, self.b2))


@functools.lru_cache(maxsize=8)
def _sinusoids(rows: int, channels: int) -> np.ndarray:
    """Standard sinusoidal position table, rows indexed by age."""
    pos = np.arange(rows, dtype=np.float64)[:, None]
    i = np.arange(channels, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2 * (i // 2) / channels)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(np.float32)


def _layout(cfg: ModelConfig) -> tuple[tuple, tuple]:
    """Each stored array's (shape, draw), head then encoder, in checkpoint
    order. draw(rng) returns a fresh initial array, calling rng only for a
    normal slot; a seeded model draws each part from its own generator."""
    return _slots(cfg.head_channels, cfg.encoder_channels, cfg.context,
                  cfg.patch_size, cfg.num_motion_modules)


@functools.lru_cache(maxsize=8)  # shared: the draws hold only numbers
def _slots(c: int, e: int, ctx: int, patch: int, modules: int):
    def lin(rows, cols, scale):
        std = scale / math.sqrt(rows)
        return (rows, cols), lambda rng: rng.normal(0, std, (rows, cols))

    def bias(n):
        return (n,), lambda rng: np.zeros(n)

    # _FrameBlock's fields: w1, b1, w2, b2
    block = [lin(c, c, 1.0), bias(c), lin(c, c, 0.5), bias(c)]
    # MotionModuleParams' fields: wq, bq, wk, wv, bv, wo, bo, ln_gain,
    # ln_bias, pe_table (a copy, so each module's table is its own)
    motion = [lin(c, c, 1.0), bias(c), lin(c, c, 1.0), lin(c, c, 1.0),
              bias(c), lin(c, c, 0.5), bias(c), ((c,), lambda rng: np.ones(c)),
              bias(c), ((ctx, c), lambda rng: _sinusoids(ctx, c).copy())]
    head = [lin(e, c, 1.0), bias(c)] + (block + motion) * modules \
        + [lin(c, 1, 0.5), bias(1)]
    return tuple(head), (lin(3 * patch ** 2, e, 1.0),
                         ((e,), lambda rng: rng.normal(0, 0.1, e)))


class DepthModel:
    """Frozen encoder + trainable spatiotemporal head."""

    def __init__(self, cfg: ModelConfig, arrays=None):
        """A seeded model or, given every stored array in checkpoint order,
        one built from them without drawing (ValueError if their count or
        shapes differ from _layout's). It holds every array in float32."""
        self.cfg = cfg
        head, encoder = _layout(cfg)
        if arrays is None:
            head_rng = np.random.default_rng(cfg.seed + 1)
            encoder_rng = np.random.default_rng(cfg.seed)
            arrays = ([draw(head_rng) for _, draw in head]
                      + [draw(encoder_rng) for _, draw in encoder])
        if [a.shape for a in arrays] != [s for s, _ in head + encoder]:
            raise ValueError("stored arrays do not match the model's layout")
        stored = (np.asarray(a, dtype=np.float32) for a in arrays)

        def params(n):
            return [Tensor(next(stored), requires_grad=True)
                    for _ in range(n)]

        self.w_in, self.b_in = params(2)
        self.blocks: list[_FrameBlock] = []
        self.motions: list[MotionModuleParams] = []
        n_block = len(fields(_FrameBlock))
        n_motion = len(fields(MotionModuleParams))
        for _ in range(cfg.num_motion_modules):
            self.blocks.append(_FrameBlock(*params(n_block)))
            self.motions.append(MotionModuleParams(*params(n_motion)))
        self.w_out, self.b_out = params(2)
        self.encoder = EncoderStub(cfg, *stored)

    # --- parameter plumbing -------------------------------------------
    def head_parameters(self) -> list[tuple[str, Tensor]]:
        """Trainable parameters in declared (checkpoint) order."""
        out = [("w_in", self.w_in), ("b_in", self.b_in)]
        for i, (blk, mm) in enumerate(zip(self.blocks, self.motions)):
            for prefix, part in ((f"block{i}", blk), (f"motion{i}", mm)):
                out += [(f"{prefix}.{f.name}", getattr(part, f.name))
                        for f in fields(part)]
        out += [("w_out", self.w_out), ("b_out", self.b_out)]
        return out

    # --- forward passes -----------------------------------------------
    def _readout(self, h: Tensor, n_frames: int) -> Tensor:
        """[N, H, W] inverse depth; NonFiniteError on a NaN or Inf."""
        cfg = self.cfg
        d = T.linear(h, self.w_out, self.b_out)
        if not np.isfinite(d.data).all():
            raise T.NonFiniteError("head output is not finite")
        grid = T.reshape(d, (n_frames, cfg.height // cfg.patch_size,
                             cfg.width // cfg.patch_size))
        return T.upsample_nearest(grid, cfg.patch_size)

    def _head(self, features: np.ndarray, motion) -> Tensor:
        """The head body of both modes: [N, S, C_enc] features -> [S, N, C]
        before the readout, token-major, with motion(i, h) running motion
        module i. Malformed features raise ValueError before any op runs."""
        feats = np.asarray(features, dtype=np.float32)
        cfg = self.cfg
        if feats.ndim != 3 or len(feats) < 1 or \
                feats.shape[1:] != (cfg.tokens, cfg.encoder_channels):
            raise ValueError(f"head takes features [N >= 1, {cfg.tokens}, "
                             f"{cfg.encoder_channels}], got {feats.shape}")
        # a view of the constant features: no tape node
        h = T.linear(feats.transpose(1, 0, 2), self.w_in, self.b_in)
        for i, blk in enumerate(self.blocks):
            h = motion(i, blk.forward(h))
        return h

    def head_forward_batch(self, features: np.ndarray,
                           context: int | None = None) -> Tensor:
        """[N, S, C_enc] features -> [N, H, W] inverse depth, banded mask."""
        c = self.cfg.context if context is None else context
        h = self._head(features, lambda i, h: motion_module_forward_batch(
            h, c, fold(self.motions[i])))
        return self._readout(T.transpose(h, (1, 0, 2)), h.shape[1])

    def forward_batch(self, rgb_seq: np.ndarray,
                      context: int | None = None) -> np.ndarray:
        return self.head_forward_batch(
            self.encoder.encode_sequence(rgb_seq), context).data

    def new_session(self, context: int | None = None,
                    cache_modulus: int | None = None,
                    precision: str | None = None) -> "StreamingSession":
        return StreamingSession(self, context=context,
                                cache_modulus=cache_modulus,
                                precision=precision)


class StreamingSession:
    """One streaming run: one cache bank per motion module.

    The session snapshots the model's weights when it is built and folds
    the attention weights once; training the model afterwards does not
    change this session's outputs. A stream restarts in a new session.
    """

    def __init__(self, model: DepthModel, context: int | None = None,
                 cache_modulus: int | None = None,
                 precision: str | None = None):
        cfg = model.cfg
        context = cfg.context if context is None else context
        if context > cfg.context:
            raise ValueError("session context cannot exceed the model's "
                             "position table")
        modulus = cfg.cache_modulus if cache_modulus is None else cache_modulus
        precision = cfg.precision if precision is None else precision
        self.model = DepthModel(cfg, [a.copy() for a in _stored_arrays(model)])
        self.folded = [fold(mm) for mm in self.model.motions]
        self.banks = [CacheBank(context, modulus, precision)
                      for _ in range(cfg.num_motion_modules)]

    def head_forward_stream(self, features: np.ndarray) -> np.ndarray:
        """Features of ONE frame [S, C_enc] -> [H, W] inverse depth.

        The step is all or nothing. A frame of the wrong shape or with a
        non-finite value raises ValueError before any cache is written;
        any later raise (NonFiniteError from a bank or the readout) puts
        every bank back as it was. Either way the session goes on as if the
        frame had never been offered.
        """
        feats = np.asarray(features, dtype=np.float32)
        if not np.isfinite(feats).all():
            raise ValueError("stream step takes finite features")
        saved = [bank._entries.copy() for bank in self.banks]
        try:
            h = self.model._head(feats[None], lambda i, h: (
                motion_module_forward_stream(h, self.banks[i],
                                             self.folded[i])))
            return self.model._readout(h, 1).data[0]
        except BaseException:
            for bank, entries in zip(self.banks, saved):
                bank._entries = entries
            raise

    def step_rgb(self, rgb: np.ndarray) -> np.ndarray:
        return self.head_forward_stream(self.model.encoder.encode_frame(rgb))

    def memory_footprint(self) -> int:
        return sum(bank.memory_footprint() for bank in self.banks)


# --- checkpoint format ------------------------------------------------
# magic (8 bytes) | uint32 LE config-JSON length | config JSON (utf-8) |
# for each head parameter in declared order, then encoder weight/bias:
#   raw float32 little-endian values, shapes implied by the config.

def _stored_arrays(model: DepthModel) -> list[np.ndarray]:
    """Every checkpointed array, in the order the format stores them."""
    return [t.data for _, t in model.head_parameters()] + [
        model.encoder.weight, model.encoder.bias]


def save_checkpoint(model: DepthModel, path, extra: dict | None = None):
    cfg = asdict(model.cfg)
    if extra:
        cfg["extra"] = extra
    blob = json.dumps(cfg, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for arr in _stored_arrays(model):
            f.write(np.ascontiguousarray(
                arr.astype("<f4", copy=False)).tobytes())


def load_checkpoint(path) -> tuple[DepthModel, dict]:
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"magic {magic!r}, not {CHECKPOINT_MAGIC!r}")
        header = f.read(4)
        if len(header) != 4:
            raise ValueError("truncated checkpoint header")
        (blob_len,) = struct.unpack("<I", header)
        cfg = json.loads(f.read(blob_len).decode("utf-8"))
        if not isinstance(cfg, dict):
            raise ValueError("bad checkpoint config: not a JSON object")
        extra = cfg.pop("extra", {})
        try:
            steps = extra.get("steps_done", 0) if isinstance(extra, dict) \
                else None
            if type(steps) is not int or steps < 0:
                raise ValueError(f"extra must be an object whose steps_done "
                                 f"is an integer >= 0, got {extra!r}")
            factors = cfg.get("fusion_factors", [4, 2, 1, 0.5])
            if not isinstance(factors, list) or \
                    any(type(f) not in (int, float) for f in factors):
                raise ValueError(f"fusion_factors must be a list of numbers,"
                                 f" got {factors!r}")
            cfg = ModelConfig(**{**cfg, "fusion_factors": tuple(factors)})
        except (TypeError, ValueError) as e:
            raise ValueError(f"bad checkpoint config: {e}") from None
        shapes = [shape for part in _layout(cfg) for shape, _ in part]
        sizes = [math.prod(shape) for shape in shapes]
        raw = f.read(4 * sum(sizes))
        if len(raw) != 4 * sum(sizes):
            raise ValueError("truncated checkpoint")
        if f.read(1):
            raise ValueError("trailing bytes after checkpoint")
    flat = np.frombuffer(bytearray(raw), dtype="<f4")
    arrays = [flat[end - size:end].reshape(shape) for shape, size, end in
              zip(shapes, sizes, itertools.accumulate(sizes))]
    return DepthModel(cfg, arrays), extra

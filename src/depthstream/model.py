"""End-to-end toy depth pipeline.

A frozen patchify encoder feeds a trainable head that alternates per-frame
MLP blocks with temporal attention modules, finishing in a per-patch
inverse-depth readout upsampled to full resolution. The head runs either
batched (training, banded mask) or frame-by-frame (streaming, cached
windows); the two are equivalent.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .cache import _DTYPES, CacheBank
from .motion import MotionModuleParams, fold, initial_arrays, \
    motion_module_forward_batch, motion_module_forward_stream
from .tensor import Tensor

__all__ = ["ModelConfig", "EncoderStub", "DepthModel", "StreamingSession",
           "save_checkpoint", "load_checkpoint", "CHECKPOINT_MAGIC"]

CHECKPOINT_MAGIC = b"DSTM0001"


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
        small = [f.name for f in fields(self) if f.type == "int"
                 and f.name != "seed" and getattr(self, f.name) < 1]
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


def _layout(cfg: ModelConfig) -> tuple[list[tuple], list[tuple]]:
    """Every stored array's (shape, fill, std) in checkpoint order (see
    initial_arrays): the head's slots, then the encoder's. A seeded model
    draws each part from its own generator."""
    c, e = cfg.head_channels, cfg.encoder_channels

    def lin(rows, cols, scale=1.0):
        return ((rows, cols), "normal", scale / math.sqrt(rows))

    def bias(n):
        return ((n,), "zeros", 0.0)

    module = [lin(c, c), bias(c), lin(c, c, 0.5), bias(c)] \
        + MotionModuleParams.layout(c, cfg.context)
    fan_in = 3 * cfg.patch_size ** 2
    return ([lin(e, c), bias(c)] + module * cfg.num_motion_modules
            + [lin(c, 1, 0.5), bias(1)],
            [lin(fan_in, e), ((e,), "normal", 0.1)])


class DepthModel:
    """Frozen encoder + trainable spatiotemporal head."""

    def __init__(self, cfg: ModelConfig, arrays=None):
        """A seeded model or, given every stored array in checkpoint order,
        one built from them without drawing (ValueError if their count or
        shapes differ from _layout's). It holds every array in float32."""
        self.cfg = cfg
        head, encoder = _layout(cfg)
        if arrays is None:
            arrays = (initial_arrays(head, np.random.default_rng(cfg.seed + 1))
                      + initial_arrays(encoder,
                                       np.random.default_rng(cfg.seed)))
        shapes = [shape for shape, _, _ in head + encoder]
        if [a.shape for a in arrays] != shapes:
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

    def head_forward_batch(self, features: np.ndarray,
                           context: int | None = None) -> Tensor:
        """[N, S, C_enc] features -> [N, H, W] inverse depth, banded mask."""
        feats = np.asarray(features, dtype=np.float32)
        n = feats.shape[0]
        c = self.cfg.context if context is None else context
        if c > self.cfg.context:
            raise ValueError("context cannot exceed the model's position table")
        h = T.linear(feats, self.w_in, self.b_in)
        for blk, mm in zip(self.blocks, self.motions):
            h = blk.forward(h)
            h = motion_module_forward_batch(h, c, fold(mm))
        return self._readout(h, n)

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


class SessionMisuse(ValueError):
    """Streaming session offered a frame it cannot take."""


class StreamingSession:
    """One streaming run: per-motion-module cache banks plus a frame counter.

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
        self.t = 0

    def head_forward_stream(self, features: np.ndarray) -> np.ndarray:
        """Features of ONE frame [S, C_enc] -> [H, W] inverse depth.

        The step is all or nothing. A frame of the wrong shape or with a
        non-finite value raises SessionMisuse before any cache is written;
        any later raise (NonFiniteError from a bank or the readout) puts
        every bank back as it was. Either way t does not count the frame,
        so the session goes on as if it had never been offered.
        """
        feats = np.asarray(features, dtype=np.float32)
        cfg = self.model.cfg
        if feats.shape != (cfg.tokens, cfg.encoder_channels):
            raise SessionMisuse(
                f"stream step takes one {cfg.tokens}x"
                f"{cfg.encoder_channels} frame, got shape {feats.shape}")
        if not np.isfinite(feats).all():
            raise SessionMisuse("stream step takes finite features")
        saved = [bank._entries.copy() for bank in self.banks]
        try:
            # one frame, token-major [S, 1, C]: the attention kernel's layout
            h = T.linear(feats[:, None], self.model.w_in, self.model.b_in)
            for blk, folded, bank in zip(self.model.blocks, self.folded,
                                         self.banks):
                h = blk.forward(h)
                h = motion_module_forward_stream(h, self.t, bank, folded)
            out = self.model._readout(h, 1).data[0]
        except BaseException:
            for bank, entries in zip(self.banks, saved):
                bank._entries = entries
            raise
        self.t += 1
        return out

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
            raise ValueError("not a model checkpoint (bad magic)")
        header = f.read(4)
        if len(header) != 4:
            raise ValueError("truncated checkpoint header")
        (blob_len,) = struct.unpack("<I", header)
        cfg = json.loads(f.read(blob_len).decode("utf-8"))
        extra = cfg.pop("extra", {})
        cfg["fusion_factors"] = tuple(cfg.get("fusion_factors", (4, 2, 1, 0.5)))
        try:
            cfg = ModelConfig(**cfg)
        except (TypeError, ValueError) as e:
            raise ValueError(f"bad checkpoint config: {e}") from None
        head, encoder = _layout(cfg)
        shapes = [shape for shape, _, _ in head + encoder]
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

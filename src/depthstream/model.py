"""End-to-end toy depth pipeline.

A frozen patchify encoder feeds a trainable head that alternates per-frame
MLP blocks with temporal attention modules, finishing in a per-patch
inverse-depth readout upsampled to full resolution. The head runs either
batched (training, banded mask) or frame-by-frame (streaming, cached
windows); the two are equivalent.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .cache import CacheBank, PrecisionMode
from .motion import MotionModuleParams, WindowedMask, \
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
        if self.height % self.patch_size or self.width % self.patch_size:
            raise ValueError("height/width must be divisible by patch size")
        if self.context < 1 or self.num_motion_modules < 1:
            raise ValueError("context and module count must be >= 1")

    @property
    def tokens(self) -> int:
        return (self.height // self.patch_size) * (self.width // self.patch_size)

    @property
    def precision_mode(self) -> PrecisionMode:
        return PrecisionMode(self.precision)


class EncoderStub:
    """Frozen seeded patchify-and-project encoder.

    Features are strictly per-frame: no temporal state, identical input
    frame gives identical features.
    """

    def __init__(self, cfg: ModelConfig):
        rng = np.random.default_rng(cfg.seed)
        p = cfg.patch_size
        fan_in = 3 * p * p
        self.weight = rng.normal(0, 1.0 / np.sqrt(fan_in),
                                 (fan_in, cfg.encoder_channels)).astype(np.float32)
        self.bias = rng.normal(0, 0.1, cfg.encoder_channels).astype(np.float32)
        self.cfg = cfg

    def encode_frame(self, rgb: np.ndarray) -> np.ndarray:
        """rgb [H, W, 3] in [0, 1] -> token features [S, C_enc]."""
        cfg = self.cfg
        p = cfg.patch_size
        if rgb.shape != (cfg.height, cfg.width, 3):
            raise ValueError(f"expected {(cfg.height, cfg.width, 3)}, "
                             f"got {rgb.shape}")
        patches = rgb.astype(np.float32).reshape(
            cfg.height // p, p, cfg.width // p, p, 3)
        patches = patches.transpose(0, 2, 1, 3, 4).reshape(cfg.tokens, -1)
        return patches @ self.weight + self.bias

    def encode_sequence(self, rgb_seq: np.ndarray) -> np.ndarray:
        return np.stack([self.encode_frame(f) for f in rgb_seq])


@dataclass
class _FrameBlock:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def named_tensors(self):
        return [("w1", self.w1), ("b1", self.b1),
                ("w2", self.w2), ("b2", self.b2)]

    def forward(self, x: Tensor) -> Tensor:
        h = T.relu(T.linear(x, self.w1, self.b1))
        return T.add(x, T.linear(h, self.w2, self.b2))


class DepthModel:
    """Frozen encoder + trainable spatiotemporal head."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.encoder = EncoderStub(cfg)
        rng = np.random.default_rng(cfg.seed + 1)
        c = cfg.head_channels

        def lin(rows, cols, scale=1.0):
            return Tensor(rng.normal(0, scale / np.sqrt(rows), (rows, cols)),
                          requires_grad=True)

        self.w_in = lin(cfg.encoder_channels, c)
        self.b_in = T.zeros((c,), requires_grad=True)
        self.blocks: list[_FrameBlock] = []
        self.motions: list[MotionModuleParams] = []
        for _ in range(cfg.num_motion_modules):
            self.blocks.append(_FrameBlock(
                w1=lin(c, c), b1=T.zeros((c,), requires_grad=True),
                w2=lin(c, c, 0.5), b2=T.zeros((c,), requires_grad=True)))
            self.motions.append(
                MotionModuleParams.init(c, cfg.context, rng))
        self.w_out = lin(c, 1, 0.5)
        self.b_out = T.zeros((1,), requires_grad=True)

    # --- parameter plumbing -------------------------------------------
    def head_parameters(self) -> list[tuple[str, Tensor]]:
        """Trainable parameters in declared (checkpoint) order."""
        out = [("w_in", self.w_in), ("b_in", self.b_in)]
        for i, (blk, mm) in enumerate(zip(self.blocks, self.motions)):
            out += [(f"block{i}.{n}", t) for n, t in blk.named_tensors()]
            out += [(f"motion{i}.{n}", t) for n, t in mm.named_tensors()]
        out += [("w_out", self.w_out), ("b_out", self.b_out)]
        return out

    def encoder_parameters(self) -> list[tuple[str, np.ndarray]]:
        return [("encoder.weight", self.encoder.weight),
                ("encoder.bias", self.encoder.bias)]

    # --- forward passes -----------------------------------------------
    def _readout(self, h: Tensor, n_frames: int) -> Tensor:
        cfg = self.cfg
        d = T.linear(h, self.w_out, self.b_out)
        grid = T.reshape(d, (n_frames, cfg.height // cfg.patch_size,
                             cfg.width // cfg.patch_size))
        return T.upsample_nearest(grid, cfg.patch_size)

    def head_forward_batch(self, features, context: int | None = None) -> Tensor:
        """[N, S, C_enc] features -> [N, H, W] inverse depth, banded mask."""
        feats = features if isinstance(features, Tensor) else T.constant(features)
        n = feats.shape[0]
        c = self.cfg.context if context is None else context
        if c > self.cfg.context:
            raise ValueError("context cannot exceed the model's position table")
        mask = WindowedMask(band=c, frames=n)
        h = T.linear(feats, self.w_in, self.b_in)
        for blk, mm in zip(self.blocks, self.motions):
            h = blk.forward(h)
            h = motion_module_forward_batch(h, mask, mm)
        return self._readout(h, n)

    def forward_batch(self, rgb_seq: np.ndarray,
                      context: int | None = None) -> np.ndarray:
        return self.head_forward_batch(
            self.encoder.encode_sequence(rgb_seq), context).data

    def new_session(self, context: int | None = None,
                    cache_modulus: int | None = None,
                    precision: PrecisionMode | None = None) -> "StreamingSession":
        return StreamingSession(self, context=context,
                                cache_modulus=cache_modulus,
                                precision=precision)


class SessionMisuse(RuntimeError):
    """Streaming session advanced inconsistently."""


class StreamingSession:
    """One streaming run: per-motion-module cache banks plus a frame counter."""

    def __init__(self, model: DepthModel, context: int | None = None,
                 cache_modulus: int | None = None,
                 precision: PrecisionMode | None = None):
        cfg = model.cfg
        self.model = model
        self.context = cfg.context if context is None else context
        if self.context > cfg.context:
            raise ValueError("session context cannot exceed the model's "
                             "position table")
        self.modulus = cfg.cache_modulus if cache_modulus is None else cache_modulus
        self.precision = cfg.precision_mode if precision is None else precision
        self.banks = [CacheBank(self.context, self.modulus, f"motion{i}",
                                self.precision)
                      for i in range(cfg.num_motion_modules)]
        self.t = 0

    def head_forward_stream(self, features) -> np.ndarray:
        """Features of ONE frame [S, C_enc] -> [H, W] inverse depth."""
        feats = features.data if isinstance(features, Tensor) else \
            np.asarray(features)
        if feats.ndim != 2:
            raise SessionMisuse("stream step takes a single frame")
        # one frame, token-major [S, 1, C]: the attention kernel's layout
        h = T.linear(T.constant(feats[:, None]), self.model.w_in,
                     self.model.b_in)
        for blk, mm, bank in zip(self.model.blocks, self.model.motions,
                                 self.banks):
            h = blk.forward(h)
            h = motion_module_forward_stream(h, self.t, bank, mm)
        out = self.model._readout(h, 1)
        self.t += 1
        return out.data[0]

    def step_rgb(self, rgb: np.ndarray) -> np.ndarray:
        return self.head_forward_stream(self.model.encoder.encode_frame(rgb))

    def reset(self):
        for bank in self.banks:
            bank.clear()
        self.t = 0

    def memory_footprint(self) -> int:
        return sum(bank.memory_footprint() for bank in self.banks)


# --- checkpoint format ------------------------------------------------
# magic (8 bytes) | uint32 LE config-JSON length | config JSON (utf-8) |
# for each head parameter in declared order, then encoder weight/bias:
#   raw float32 little-endian values, shapes implied by the config.

def save_checkpoint(model: DepthModel, path, extra: dict | None = None):
    cfg = asdict(model.cfg)
    cfg["fusion_factors"] = list(model.cfg.fusion_factors)
    if extra:
        cfg["extra"] = extra
    blob = json.dumps(cfg, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for _, t in model.head_parameters():
            f.write(np.ascontiguousarray(
                t.data.astype("<f4", copy=False)).tobytes())
        for _, arr in model.encoder_parameters():
            f.write(np.ascontiguousarray(
                arr.astype("<f4", copy=False)).tobytes())


def load_checkpoint(path) -> tuple[DepthModel, dict]:
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError("not a model checkpoint (bad magic)")
        (blob_len,) = struct.unpack("<I", f.read(4))
        cfg = json.loads(f.read(blob_len).decode("utf-8"))
        extra = cfg.pop("extra", {})
        cfg["fusion_factors"] = tuple(cfg.get("fusion_factors", (4, 2, 1, 0.5)))
        model = DepthModel(ModelConfig(**cfg))
        for _, t in model.head_parameters():
            raw = f.read(4 * t.data.size)
            if len(raw) != 4 * t.data.size:
                raise ValueError("truncated checkpoint")
            t.data = np.frombuffer(raw, dtype="<f4").reshape(
                t.data.shape).astype(np.float32)
        for name, arr in model.encoder_parameters():
            raw = f.read(4 * arr.size)
            if len(raw) != 4 * arr.size:
                raise ValueError("truncated checkpoint")
            loaded = np.frombuffer(raw, dtype="<f4").reshape(arr.shape)
            arr[...] = loaded
    return model, extra

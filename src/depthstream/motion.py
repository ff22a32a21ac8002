"""Temporal attention with two equivalent modes.

Training runs batched attention under a banded lower-triangular mask of
width c; streaming runs cached cross-attention against the window of a
CacheBank: at most c past latents, spaced m frames apart once the bank
holds more than c. Both run one banded attention kernel, so for m = 1
their outputs agree frame for frame. Latents enter the cache after layer norm
but before positional encoding; ages are window-relative (age 0 = current
frame) and fold into the scores and context, as the encoding is added
before the key and value projections.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .cache import CacheBank
from .tensor import Tensor

__all__ = [
    "MotionModuleParams",
    "attend_streaming",
    "attend_batch_masked",
    "motion_module_forward_batch",
    "motion_module_forward_stream",
]


def sinusoidal_table(rows: int, channels: int) -> np.ndarray:
    """Standard sinusoidal position table, rows indexed by age."""
    pos = np.arange(rows, dtype=np.float64)[:, None]
    i = np.arange(channels, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2 * (i // 2) / channels)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(np.float32)


@dataclass
class MotionModuleParams:
    """Projections, pre-attention norm, and the c-row position table."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor  # kept in checkpoints; it cancels in the softmax (see _attend)
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln_gain: Tensor
    ln_bias: Tensor
    pe_table: Tensor  # [c, C], row index = age within the window
    context: int

    @classmethod
    def init(cls, channels: int, context: int, rng: np.random.Generator,
             trainable: bool = True):
        c = channels

        def proj(scale):
            return Tensor(rng.normal(0, scale / np.sqrt(c), (c, c)),
                          requires_grad=trainable)

        return cls(
            wq=proj(1.0), bq=T.zeros((c,), requires_grad=trainable),
            wk=proj(1.0), bk=T.zeros((c,), requires_grad=trainable),
            wv=proj(1.0), bv=T.zeros((c,), requires_grad=trainable),
            wo=proj(0.5), bo=T.zeros((c,), requires_grad=trainable),
            ln_gain=Tensor(np.ones(c), requires_grad=trainable),
            ln_bias=T.zeros((c,), requires_grad=trainable),
            pe_table=Tensor(sinusoidal_table(context, c),
                            requires_grad=trainable),
            context=context,
        )

    def named_tensors(self):
        return [("wq", self.wq), ("bq", self.bq), ("wk", self.wk),
                ("bk", self.bk), ("wv", self.wv), ("bv", self.bv),
                ("wo", self.wo), ("bo", self.bo),
                ("ln_gain", self.ln_gain), ("ln_bias", self.ln_bias),
                ("pe_table", self.pe_table)]


@functools.lru_cache(maxsize=64)
def _band_tables(nq: int, nk: int, band: int):
    """The kernel's tables for nq queries at key positions nk-nq..nk-1:
    the ages in use, the index gathering each (query, key) position score
    from [S, nq, ages], the additive band mask (None if all are visible)
    and the index gathering each (query, age) weight from [S, nq, nk]."""
    ages = min(band, nk)
    rows = np.arange(nq)[:, None]
    pos = np.arange(nk - nq, nk)[:, None]
    age = pos - np.arange(nk)
    visible = (age >= 0) & (age < band)
    score_idx = (slice(None), rows, np.where(visible, age, 0))
    mask = None if visible.all() else np.where(visible, 0.0, -1e30)
    key = pos - np.arange(ages)
    # an age older than the first key reads the next key, which lies in
    # the future, so its weight is exactly 0
    ctx_idx = (slice(None), rows, np.where(key >= 0, key, pos + 1))
    return ages, score_idx, mask, ctx_idx


def _attend(query: Tensor, keys: Tensor, band: int,
            params: MotionModuleParams) -> Tensor:
    """The attention kernel of both modes: query [S, Nq, C] holds the
    latents at positions Nk-Nq..Nk-1 of keys [S, Nk, C] (post layer-norm,
    no PE); key j is visible at position p iff its age p - j is < band.

    With k_j = (x_j + pe[age_j]) Wk + bk, a score is (q Wk^T).x_j +
    (q Wk^T).pe[age_j] (q.bk is the same for every key and cancels), and
    the context is (sum_j a_j x_j + sum_j a_j pe[age_j]) Wv + bv, so no
    latent is projected to K or V. Returns [S, Nq, C] before the residual.
    """
    _, nq, channels = query.shape
    ages, score_idx, mask, ctx_idx = _band_tables(nq, keys.shape[1], band)
    pe = params.pe_table if ages == params.pe_table.shape[0] else \
        params.pe_table[:ages]
    q = T.linear(query, params.wq, params.bq)
    qk = T.mul(T.matmul(q, T.transpose(params.wk, (1, 0))),
               1.0 / np.sqrt(channels))                     # [S, Nq, C]
    pos = T.matmul(qk, T.transpose(pe, (1, 0)))[score_idx]  # [S, Nq, Nk]
    scores = T.add(T.bmm(qk, T.transpose(keys, (0, 2, 1))), pos)
    if mask is not None:
        scores = T.add(scores, mask)
    attn = T.softmax_rows(scores)
    # attention weight per age [S, Nq, ages] times pe, plus attn . x
    ctx = T.linear(attn[ctx_idx], pe, T.bmm(attn, keys))
    return T.linear(T.linear(ctx, params.wv, params.bv), params.wo,
                    params.bo)


def attend_streaming(current: Tensor, window, params: MotionModuleParams):
    """Cached cross-attention for one frame, token-major [S, 1, C], against
    the [w, S, C] window of stored latents, oldest to newest, whose newest
    entry is the frame itself (cache updated before attending). Returns
    [S, 1, C]. With w == 1 this is self-attention.
    """
    window = np.asarray(window)
    w = len(window)
    if w < 1:
        raise ValueError("empty attention window")
    if w > params.context:
        raise ValueError(f"window {w} exceeds context {params.context}")
    return _attend(current, T.constant(window.transpose(1, 0, 2)),
                   params.context, params)


def attend_batch_masked(seq: Tensor, band: int,
                        params: MotionModuleParams) -> Tensor:
    """Banded masked attention over an [N, S, C] sequence: the stream's
    kernel with every frame as a query, key k visible to query q iff
    0 <= q - k < band."""
    tokens = T.transpose(seq, (1, 0, 2))  # [S, N, C]
    band = min(band, params.context)
    return T.transpose(_attend(tokens, tokens, band, params), (1, 0, 2))


def motion_module_forward_batch(x: Tensor, band: int,
                                params: MotionModuleParams) -> Tensor:
    """Pre-norm temporal attention with residual, batch mode. [N, S, C]."""
    h = T.layer_norm(x, params.ln_gain, params.ln_bias)
    return T.add(x, attend_batch_masked(h, band, params))


def motion_module_forward_stream(x: Tensor, frame_index: int,
                                 bank: CacheBank,
                                 params: MotionModuleParams) -> Tensor:
    """Streaming counterpart for one frame, token-major [S, 1, C].

    Pushes the current pre-PE latent into the bank before attending, then
    cross-attends against the bank's window.
    """
    h = T.layer_norm(x, params.ln_gain, params.ln_bias)
    bank.push_evict(frame_index, h.data[:, 0])
    # the newest window entry is the stored copy of h; use h itself as the
    # query so gradients (when taped) flow through the current frame
    y = attend_streaming(h, bank.window(), params)
    return T.add(x, y)

"""Temporal attention with two equivalent modes.

Training runs batched attention under a banded lower-triangular mask of
width c; streaming runs cached cross-attention against the window of a
CacheBank: at most c past latents, spaced m frames apart once the bank holds
more than c. Both run one banded attention kernel, so for m = 1 their
outputs agree frame for frame. Latents enter the cache after layer norm but
before positional encoding; ages are window-relative (age 0 = current frame)
and fold into the scores and context, as the encoding is added before the
key and value projections. Both modes run token-major, [S, N, C] (N = 1 in
the stream); the head's batch pass converts to frame-major once, at its
readout. The softmax runs per age, over at most band columns. In batch the
kernel moves the key products to per-age columns, and the weights back to
per-key ones, by the relative shift ("skew") of Music Transformer
(T.unskew, T.skew); the stream's window comes newest first (age order), so
there a key's column is its age. It reads a module's weights through fold,
which takes their fixed products once: per batch pass, or once per session.
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
    "FoldedWeights",
    "fold",
    "attend_streaming",
    "attend_batch_masked",
    "motion_module_forward_batch",
    "motion_module_forward_stream",
]


@dataclass
class MotionModuleParams:
    """Projections, pre-attention norm, and the c-row position table."""

    wq: Tensor
    bq: Tensor
    wk: Tensor  # no key bias: it would cancel in the softmax (see _attend)
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln_gain: Tensor
    ln_bias: Tensor
    pe_table: Tensor  # [c, C], row index = age within the window


@dataclass
class FoldedWeights:
    """A module's weights with the kernel's fixed products taken ahead of
    time (see fold), plus the tensors the kernel reads as they are."""

    qk: Tensor       # [C, C+c]: [Wqk | Wqk pe^T], Wqk = Wq Wk^T / sqrt(C)
    qk_bias: Tensor  # [C+c]: bq times the same map
    vo: Tensor       # [C, C]: Wv Wo
    vo_bias: Tensor  # [C]: bv Wo + bo
    pe_table: Tensor  # [c, C]: its row count is the module's context
    ln_gain: Tensor
    ln_bias: Tensor


def fold(params: MotionModuleParams) -> FoldedWeights:
    """Fold a module's projections: with them the kernel's query and every
    position score come from one linear map, and the value and output
    projections are one. These are ordinary ops, so under a tape gradients
    reach Wq, Wk, Wv, Wo and pe_table through them."""
    channels = params.wq.shape[0]
    # [I; pe] Wk holds Wk and pe Wk, so its transpose is [Wk^T | Wk^T pe^T];
    # the identity is a constant, so it takes pe_table's precision
    keys_pe = T.concat([np.eye(channels), params.pe_table])
    k_map = T.transpose(T.mul(T.matmul(keys_pe, params.wk),
                              1.0 / np.sqrt(channels)), (1, 0))
    return FoldedWeights(
        qk=T.matmul(params.wq, k_map), qk_bias=T.matmul(params.bq, k_map),
        vo=T.matmul(params.wv, params.wo),
        vo_bias=T.linear(params.bv, params.wo, params.bo),
        pe_table=params.pe_table, ln_gain=params.ln_gain,
        ln_bias=params.ln_bias)


@functools.lru_cache(maxsize=64)
def _age_mask(nq: int, nk: int, ages: int):
    """The additive mask of ages 0..ages-1 for nq queries at key positions
    nk-nq..nk-1: -1e30 where an age reaches before the first key, or None
    if no age does."""
    before = np.arange(ages) > np.arange(nk - nq, nk)[:, None]
    return np.where(before, -1e30, 0.0) if before.any() else None


def _attend(query: Tensor, keys: Tensor, band: int,
            weights: FoldedWeights) -> Tensor:
    """The attention kernel of both modes, on latents post layer-norm
    with no PE. Batch: query [S, N, C] holds every key of keys [S, N, C],
    oldest first, and key j is visible at position p iff its age p - j is
    < band. Stream (Nq = 1): query is the newest latent, and keys hold the
    window newest first, so key j has age j.

    With k_j = (x_j + pe[age_j]) Wk (no key bias: q.bk would be the same
    for every key and cancel), a score is (q Wk^T).x_j + (q Wk^T).pe[age_j]
    and the context is (sum_j a_j x_j + sum_j a_j pe[age_j]) Wv + bv, so no
    latent is projected to K or V. The folded weights give q Wk^T and its
    product with every pe row in one map, and Wv Wo in one. The softmax
    runs per age, over [S, Nq, min(band, Nk)], so the position scores add
    as they are and keys outside the band never enter; ages before the
    first key are masked. Returns [S, Nq, C] before the residual.
    """
    (_, nq, channels), nk = query.shape, keys.shape[1]
    ages = min(band, nk)
    qm = T.linear(query, weights.qk, weights.qk_bias)  # [S, Nq, C+c]
    dot = T.bmm(qm[..., :channels], T.transpose(keys, (0, 2, 1)))
    if nq > 1:
        dot = T.unskew(dot, ages)
    scores = T.add(dot, qm[..., channels:channels + ages])  # [S, Nq, ages]
    mask = _age_mask(nq, nk, ages)
    if mask is not None:
        scores = T.add(scores, mask)
    per_age = T.softmax_rows(scores)
    attn = per_age if nq == 1 else T.skew(per_age)  # [S, Nq, Nk]
    pe = weights.pe_table if ages == weights.pe_table.shape[0] else \
        weights.pe_table[:ages]
    # attention weight per age times pe, plus attn . x
    ctx = T.linear(per_age, pe, T.bmm(attn, keys))
    return T.linear(ctx, weights.vo, weights.vo_bias)


def attend_streaming(current: Tensor, window, weights: FoldedWeights):
    """Cached cross-attention for one frame, token-major [S, 1, C], against
    the [w, S, C] window of stored latents, newest first (age order), whose
    first entry is the frame itself (cache updated before attending).
    Returns [S, 1, C]. With w == 1 this is self-attention.
    """
    window = np.asarray(window)
    w, context = len(window), weights.pe_table.shape[0]
    if not 1 <= w <= context:
        raise ValueError(f"window must hold 1..{context} latents, got {w}")
    return _attend(current, T.Tensor(window.transpose(1, 0, 2)), context,
                   weights)


def attend_batch_masked(seq: Tensor, band: int,
                        weights: FoldedWeights) -> Tensor:
    """Banded masked attention over a token-major [S, N, C] sequence: the
    stream's kernel with every frame as a query, key k visible to query q
    iff 0 <= q - k < band (ValueError unless 1 <= band <= context)."""
    context = weights.pe_table.shape[0]
    if not 1 <= band <= context:
        raise ValueError(f"band must be in 1..{context}, got {band}")
    return _attend(seq, seq, band, weights)


def motion_module_forward_batch(x: Tensor, band: int,
                                weights: FoldedWeights) -> Tensor:
    """Pre-norm temporal attention with residual, batch mode. [S, N, C]."""
    h = T.layer_norm(x, weights.ln_gain, weights.ln_bias)
    return T.add(x, attend_batch_masked(h, band, weights))


def motion_module_forward_stream(x: Tensor, bank: CacheBank,
                                 weights: FoldedWeights) -> Tensor:
    """Streaming counterpart for one frame, token-major [S, 1, C].

    Pushes the current pre-PE latent into the bank before attending, then
    cross-attends against the bank's window.
    """
    h = T.layer_norm(x, weights.ln_gain, weights.ln_bias)
    bank.push_evict(h.data[:, 0])
    # the newest window entry is the stored copy of h; use h itself as the
    # query so gradients (when taped) flow through the current frame
    y = attend_streaming(h, bank.window(), weights)
    return T.add(x, y)

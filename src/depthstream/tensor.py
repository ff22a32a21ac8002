"""Minimal dense-tensor arithmetic with reverse-mode differentiation.

A Tensor computes in its data's precision: float64 stays float64, any
other data becomes float32, and a constant operand (a numpy array or a
number where a Tensor goes) takes its Tensor operand's precision.
Operations are module functions (T.add, T.linear, ...); a Tensor overloads
no operator except indexing. Each op records its backward rule onto the
active Tape (one per thread), and a backward computes no gradient for an
input that requires none; with no tape active an op is a plain numpy
computation whose result requires no gradient; Tape.backward sets .grad
on leaves only.
T.skew and T.unskew are the relative shift; T.weighted_abs_sum (masked
L1) and T.diff0 (frame difference) serve the losses.
Ops do not check finiteness. NonFiniteError is raised where a NaN or Inf
would persist or leave: a cache-bank write, a model output, the loss.
Gradient checking runs the same code on float64 parameters, out of
float32's noise.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "NonFiniteError",
    "ShapeError",
    "matmul",
    "bmm",
    "softmax_rows",
    "layer_norm",
    "linear",
    "relu",
    "gradcheck",
    "finite_checks",
]


class NonFiniteError(FloatingPointError):
    """A NaN or Inf would enter a cache bank, an output or a loss."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


_active_tape: contextvars.ContextVar["Tape | None"] = contextvars.ContextVar(
    "active_tape", default=None)
_NATIVE_FLOATS = frozenset((np.dtype(np.float32), np.dtype(np.float64)))
_BASIC = (int, np.integer, slice, type(Ellipsis), type(None))


@contextlib.contextmanager
def finite_checks(enabled: bool):
    """No-op: ops no longer check finiteness (see the module docstring)."""
    yield


class Tensor:
    """Immutable dense array plus grad bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)  # "d": float64 in either byte order
        self.data = arr if arr.dtype in _NATIVE_FLOATS else arr.astype(
            np.float64 if arr.dtype.char == "d" else np.float32)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, idx):
        return getitem(self, idx)


class Tape:
    """Ordered record of primitive ops; replay backward to get gradients.

    One tape is active per thread (per context); a tape must not be shared
    across concurrent tasks.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self):
        if _active_tape.get() is not None:
            raise RuntimeError("a Tape is already active")
        self._token = _active_tape.set(self)
        return self

    def __exit__(self, *exc):
        _active_tape.reset(self._token)
        return False

    def record(self, out: Tensor, inputs: Sequence[Tensor], back: Callable):
        self._nodes.append((out, tuple(inputs), back))

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss: Tensor):
        """Set .grad only on leaves reachable from loss that require it (no
        recorded op produced them), as PyTorch does without retain_grad. A
        gradient is dropped once its producer's backward has run. Sums run
        in place only into arrays the tape allocated, as a backward may
        hand one array to two operands or return a read-only view."""
        if loss.data.size != 1:
            raise ShapeError("backward expects a scalar loss")
        if not np.isfinite(loss.data).all():
            raise NonFiniteError("loss is not finite")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        owned: set[int] = set()
        for out, inputs, back in reversed(self._nodes):
            g_out = grads.pop(id(out), None)
            if g_out is None:
                continue
            for inp, g in zip(inputs, back(g_out)):
                if g is None:
                    continue
                key = id(inp)
                acc = grads.get(key)
                if acc is None:
                    grads[key] = g
                elif key in owned:
                    acc += g
                else:
                    grads[key] = acc + g
                    owned.add(key)
        for _, inputs, _ in self._nodes:
            for t in inputs:
                if t.requires_grad and id(t) in grads:
                    t.grad = grads[id(t)]


def _finish(out_data, inputs: Sequence[Tensor], back: Callable) -> Tensor:
    tape = _active_tape.get()
    if tape is None:
        return Tensor(out_data)
    needs = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        tape.record(out, inputs, back)
    return out


def _as_tensor(x, like=None) -> Tensor:
    """x itself if a Tensor, else a constant: in like's precision if like
    is a Tensor (x's operand), in its own (see Tensor) if not."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, like.data.dtype) if isinstance(like, Tensor)
                  else x)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    out = a.data + b.data

    def back(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _finish(out, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    out = a.data - b.data

    def back(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _finish(out, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    out = a.data * b.data

    def back(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _finish(out, (a, b), back)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data

    def back(g):
        ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
        gb = (_unbroadcast(-g * a.data / (b.data * b.data), b.shape)
              if b.requires_grad else None)
        return ga, gb

    return _finish(out, (a, b), back)


def abs_(a) -> Tensor:
    a = _as_tensor(a)
    out = np.abs(a.data)

    def back(g):
        return (g * np.sign(a.data),)

    return _finish(out, (a,), back)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = np.maximum(a.data, 0)

    def back(g):
        return (g * (a.data > 0),)

    return _finish(out, (a,), back)


def sum_(a, axis=None) -> Tensor:
    """Sum over axis, keeping it; with no axis, to shape [1]."""
    a = _as_tensor(a)
    out = np.atleast_1d(a.data.sum(axis=axis, keepdims=axis is not None))
    return _finish(out, (a,), lambda g: (
        g.reshape(()) if a.data.ndim == 0 else np.broadcast_to(g, a.shape),))


def weighted_abs_sum(x, w: np.ndarray) -> Tensor:
    """sum(|x| * w) for a constant w >= 0 of x's shape, as one dot with
    copysign(w, x), which is also the backward's gradient."""
    x = _as_tensor(x)
    sw = np.copysign(w, x.data, dtype=x.data.dtype)
    return _finish(np.atleast_1d(np.vdot(sw, x.data)), (x,),
                   lambda g: (g * sw,))


def diff0(x) -> Tensor:
    """x[1:] - x[:-1] along the first axis."""
    x = _as_tensor(x)
    return _finish(x.data[1:] - x.data[:-1], (x,), lambda g: (
        np.concatenate([-g[:1], g[:-1] - g[1:], g[-1:]]),))


def mean_(a) -> Tensor:
    a = _as_tensor(a)
    return mul(sum_(a), 1.0 / a.data.size)


def matmul(a, b) -> Tensor:
    """Matrix product of a [..., k] (a [k] vector too) with a 2-D b [k, n]."""
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    if a.data.ndim < 1 or b.data.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul shapes {a.shape} x {b.shape}")
    out = a.data @ b.data

    def back(g):
        gb = (a.data.reshape(-1, b.shape[0]).T @ g.reshape(-1, b.shape[1])
              if b.requires_grad else None)
        return g @ b.data.T if a.requires_grad else None, gb

    return _finish(out, (a, b), back)


def bmm(a, b) -> Tensor:
    """Batched matrix product: [B,m,k] x [B,k,n] -> [B,m,n]."""
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    if a.data.ndim != 3 or b.data.ndim != 3 or a.shape[2] != b.shape[1]:
        raise ShapeError(f"bmm shapes {a.shape} x {b.shape}")
    out = a.data @ b.data

    def back(g):
        return (g @ b.data.transpose(0, 2, 1) if a.requires_grad else None,
                a.data.transpose(0, 2, 1) @ g if b.requires_grad else None)

    return _finish(out, (a, b), back)


def _row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1, keepdims=True), bit for bit: numpy reduces a short
    last axis row by row, so reduce a transposed copy's leading axis."""
    rows = a.reshape(-1, a.shape[-1]).T.copy()
    return np.maximum.reduce(rows).reshape(a.shape[:-1] + (1,))


def _row_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1, keepdims=True) as one product with a ones column."""
    return a @ np.ones((a.shape[-1], 1), dtype=a.dtype)


def softmax_rows(x) -> Tensor:
    """Row-stabilized softmax over the last axis; rows sum to 1."""
    x = _as_tensor(x)
    e = np.exp(x.data - _row_max(x.data))
    out = e / _row_sum(e)

    def back(g):
        return (out * (g - _row_sum(g * out)),)

    return _finish(out, (x,), back)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x = _as_tensor(x, gain)
    gain, bias = _as_tensor(gain, x), _as_tensor(bias, x)
    d = x.shape[-1]
    if d == 0:
        raise ShapeError("layer_norm over an empty axis")
    xc = x.data - np.add.reduce(x.data, -1, keepdims=True) / d
    # the same sums as x.var, bit for bit, without centring x twice
    var = np.square(xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + np.asarray(1e-5, dtype=x.data.dtype))
    xhat = xc * inv
    out = gain.data * xhat + bias.data

    def back(g):
        gg = g * gain.data if x.requires_grad else None
        dx = None if gg is None else inv / d * (
            d * gg - _row_sum(gg) - xhat * _row_sum(gg * xhat))
        return (dx,
                _unbroadcast(g * xhat, gain.shape) if gain.requires_grad else None,
                _unbroadcast(g, bias.shape) if bias.requires_grad else None)

    return _finish(out, (x, gain, bias), back)


def linear(x, w, b) -> Tensor:
    """Affine map on the last axis: x[...,k] @ w[k,n] + b, where b is [n]
    or any shape that broadcasts against the product."""
    x = _as_tensor(x, w)
    w, b = _as_tensor(w, x), _as_tensor(b, x)
    if x.shape[-1] != w.shape[0] or w.shape[1] != b.shape[-1]:
        raise ShapeError(f"linear shapes {x.shape} @ {w.shape} + {b.shape}")
    out = x.data @ w.data + b.data

    def back(g):
        gx = g @ w.data.T if x.requires_grad else None
        gw = (x.data.reshape(-1, x.shape[-1]).T @ g.reshape(-1, w.shape[1])
              if w.requires_grad else None)
        return gx, gw, _unbroadcast(g, b.shape) if b.requires_grad else None

    return _finish(out, (x, w, b), back)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    out = x.data.reshape(shape)

    def back(g):
        return (g.reshape(x.shape),)

    return _finish(out, (x,), back)


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    out = x.data.transpose(axes)

    def back(g):
        return (g.transpose(np.argsort(axes)),)

    return _finish(out, (x,), back)


def getitem(x, idx) -> Tensor:
    """x.data[idx] as a view, for a basic index only: ints, slices,
    Ellipsis, None or a tuple of these (IndexError for any other)."""
    x = _as_tensor(x)
    key = idx if isinstance(idx, tuple) else (idx,)
    if not all(isinstance(i, _BASIC) and type(i) is not bool for i in key):
        raise IndexError(f"getitem takes a basic index, got {idx!r}")
    key += () if Ellipsis in key else (...,)  # one element: a 0-d view

    def back(g):
        full = np.zeros_like(x.data)
        full[key] = g  # a basic index selects each element once
        return (full,)

    return _finish(x.data[key], (x,), back)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    like = next((t for t in tensors if isinstance(t, Tensor)), None)
    ts = [_as_tensor(t, like) for t in tensors]
    out = np.stack([t.data for t in ts])

    def back(g):
        return tuple(np.take(g, i, axis=0) for i in range(len(ts)))

    return _finish(out, tuple(ts), back)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    like = next((t for t in tensors if isinstance(t, Tensor)), None)
    ts = [_as_tensor(t, like) for t in tensors]
    out = np.concatenate([t.data for t in ts])
    splits = np.cumsum([t.shape[0] for t in ts])[:-1]

    def back(g):
        return tuple(part if t.requires_grad else None
                     for t, part in zip(ts, np.split(g, splits)))

    return _finish(out, tuple(ts), back)


def _shift(v: np.ndarray, width: int) -> np.ndarray:
    """out[b, i, j] = v[b, i, i - j] where 0 <= i - j < v.shape[2], else 0,
    for j < width: v's rows, reversed, go into zeros at row stride w + width
    and are read back at stride w + width - 1, which moves row i left by i."""
    b, n, w = v.shape
    buf = np.zeros((b, n * (w + width)), dtype=v.dtype)
    buf.reshape(b, n, w + width)[..., :w] = v[..., ::-1]
    return buf[:, w - 1:w - 1 + n * (w + width - 1)].reshape(
        b, n, w + width - 1)[..., :width]


def skew(x) -> Tensor:
    """Per-age values [B, N, a] (age k of query i) to per-key values
    [B, N, N] (key i - k), 0 outside the band; unskew is its backward."""
    x = _as_tensor(x)
    return _finish(_shift(x.data, x.shape[1]), (x,),
                   lambda g: (_shift(g, x.shape[2]),))


def unskew(y, ages: int) -> Tensor:
    """Per-key values [B, N, N] to per-age values [B, N, ages]: skew's inverse."""
    y = _as_tensor(y)
    return _finish(_shift(y.data, ages), (y,), lambda g: (_shift(g, y.shape[2]),))


def upsample_nearest(x, factor: int) -> Tensor:
    """Repeat each entry of the trailing two axes factor x factor times."""
    x = _as_tensor(x)
    out = np.repeat(np.repeat(x.data, factor, axis=-2), factor, axis=-1)

    def back(g):
        # two contiguous sums: over each row block, then each column block
        rows = g.reshape(-1, factor, g.shape[-1]).sum(axis=1)
        return (rows.reshape(-1, factor).sum(axis=1).reshape(x.shape),)

    return _finish(out, (x,), back)


def gradcheck(f: Callable[[], Tensor], params: Sequence[Tensor],
              tol: float = 1e-4) -> dict:
    """Compare analytic gradients of a scalar function against central
    finite differences with step 1e-4.

    f must rebuild its computation from the current contents of params each
    call. Returns a report with per-parameter max relative error. The
    params hold float64 copies during the check, so every op they reach
    runs in float64 and the differences are not drowned by float32
    rounding.
    """
    h = 1e-4
    saved = [p.data for p in params]
    for p in params:
        p.data = p.data.astype(np.float64)
    try:
        with Tape() as tape:
            tape.backward(f())
        analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                    for p in params]
        errs = []
        for p, ga in zip(params, analytic):
            numeric = np.zeros_like(p.data)
            flat = p.data.reshape(-1)
            nflat = numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(f().data.reshape(-1)[0])
                flat[i] = orig - h
                fm = float(f().data.reshape(-1)[0])
                flat[i] = orig
                if not (np.isfinite(fp) and np.isfinite(fm)):
                    raise NonFiniteError("non-finite value during gradcheck")
                nflat[i] = (fp - fm) / (2 * h)
            denom = np.maximum(np.abs(ga) + np.abs(numeric), 1.0)
            errs.append(float(np.max(np.abs(ga - numeric) / denom))
                        if ga.size else 0.0)
    finally:
        for p, s in zip(params, saved):
            p.data = s
            p.grad = None
    max_err = max(errs) if errs else 0.0
    return {"per_param": errs, "max_rel_err": max_err, "passed": max_err <= tol}

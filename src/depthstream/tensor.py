"""Minimal dense-tensor arithmetic with reverse-mode differentiation.

Tensors wrap row-major numpy arrays in the working precision (float32 by
default). Operations record their backward rules onto the currently active
Tape; with no tape active they are plain numpy computations. Gradient
checking runs the same code under float64 to keep finite differences out of
the float32 noise floor.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "NonFiniteError",
    "ShapeError",
    "tensor",
    "constant",
    "zeros",
    "matmul",
    "bmm",
    "softmax_rows",
    "layer_norm",
    "linear",
    "relu",
    "backward",
    "gradcheck",
    "working_dtype",
    "finite_checks",
]


class NonFiniteError(FloatingPointError):
    """A tensor operation produced NaN or Inf."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


_dtype = np.float32
_check_finite = True
_active_tape: "Tape | None" = None


@contextlib.contextmanager
def working_dtype(dt):
    """Temporarily switch the precision every new tensor is created in."""
    global _dtype
    prev = _dtype
    _dtype = np.dtype(dt).type
    try:
        yield
    finally:
        _dtype = prev


@contextlib.contextmanager
def finite_checks(enabled: bool):
    """Toggle NaN/Inf detection at op boundaries (off for benchmarks)."""
    global _check_finite
    prev = _check_finite
    _check_finite = enabled
    try:
        yield
    finally:
        _check_finite = prev


class Tensor:
    """Immutable dense array plus grad bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_dtype)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all routing goes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, idx):
        return getitem(self, idx)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


class Tape:
    """Ordered record of primitive ops; replay backward to get gradients.

    Single-owner: a tape must not be shared across concurrent tasks.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self):
        global _active_tape
        if _active_tape is not None:
            raise RuntimeError("a Tape is already active")
        _active_tape = self
        return self

    def __exit__(self, *exc):
        global _active_tape
        _active_tape = None
        return False

    def record(self, out: Tensor, inputs: Sequence[Tensor], back: Callable):
        self._nodes.append((out, tuple(inputs), back))

    def clear(self):
        self._nodes.clear()

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss: Tensor):
        """Populate .grad on every requires_grad tensor reachable from loss."""
        if loss.data.size != 1:
            raise ShapeError("backward expects a scalar loss")
        if not np.isfinite(loss.data).all():
            raise NonFiniteError("loss is not finite")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for out, inputs, back in reversed(self._nodes):
            g_out = grads.get(id(out))
            if g_out is None:
                continue
            for inp, g in zip(inputs, back(g_out)):
                if g is None:
                    continue
                acc = grads.get(id(inp))
                grads[id(inp)] = g if acc is None else acc + g
            if out.requires_grad:
                out.grad = grads[id(out)]
        for out, inputs, _ in self._nodes:
            for t in (out, *inputs):
                if t.requires_grad and id(t) in grads:
                    t.grad = grads[id(t)]


def backward(loss: Tensor, tape: Tape):
    tape.backward(loss)


def _finish(out_data, inputs: Sequence[Tensor], back: Callable) -> Tensor:
    if _check_finite and not np.isfinite(out_data).all():
        raise NonFiniteError("operation produced non-finite values")
    needs = any(isinstance(t, Tensor) and t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if _active_tape is not None and needs:
        _active_tape.record(out, inputs, back)
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _finish(out, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _finish(out, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def back(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _finish(out, (a, b), back)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data

    def back(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
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


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def back(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _finish(np.atleast_1d(out), (a,), back)


def mean_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def matmul(a, b) -> Tensor:
    """Matrix product of a [..., k] with a 2-D b [k, n]."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul shapes {a.shape} x {b.shape}")
    out = a.data @ b.data

    def back(g):
        gb = a.data.reshape(-1, b.shape[0]).T @ g.reshape(-1, b.shape[1])
        return g @ b.data.T, gb

    return _finish(out, (a, b), back)


def bmm(a, b) -> Tensor:
    """Batched matrix product: [B,m,k] x [B,k,n] -> [B,m,n]."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 3 or b.data.ndim != 3 or a.shape[2] != b.shape[1]:
        raise ShapeError(f"bmm shapes {a.shape} x {b.shape}")
    out = a.data @ b.data

    def back(g):
        return g @ b.data.transpose(0, 2, 1), a.data.transpose(0, 2, 1) @ g

    return _finish(out, (a, b), back)


def softmax_rows(x) -> Tensor:
    """Row-stabilized softmax over the last axis; rows sum to 1."""
    x = _as_tensor(x)
    if x.data.size == 0:
        return _finish(x.data.copy(), (x,), lambda g: (g.copy(),))
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _finish(out, (x,), back)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if d == 0:
        raise ShapeError("layer_norm over an empty axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    xhat = (x.data - mu) * inv
    out = gain.data * xhat + bias.data

    def back(g):
        gg = g * gain.data
        dx = inv / d * (d * gg - gg.sum(axis=-1, keepdims=True)
                        - xhat * (gg * xhat).sum(axis=-1, keepdims=True))
        dgain = _unbroadcast(g * xhat, gain.shape)
        dbias = _unbroadcast(g, bias.shape)
        return dx, dgain, dbias

    return _finish(out, (x, gain, bias), back)


def linear(x, w, b) -> Tensor:
    """Affine map on the last axis: x[...,k] @ w[k,n] + b, where b is [n]
    or any shape that broadcasts against the product."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.shape[-1] != w.shape[0] or w.shape[1] != b.shape[-1]:
        raise ShapeError(f"linear shapes {x.shape} @ {w.shape} + {b.shape}")
    out = x.data @ w.data + b.data

    def back(g):
        gx = g @ w.data.T
        gw = x.data.reshape(-1, x.shape[-1]).T @ g.reshape(-1, w.shape[1])
        return gx, gw, _unbroadcast(g, b.shape)

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
    inv = np.argsort(axes)

    def back(g):
        return (g.transpose(inv),)

    return _finish(out, (x,), back)


def getitem(x, idx) -> Tensor:
    x = _as_tensor(x)
    out = x.data[idx]

    def back(g):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        return (full,)

    return _finish(np.array(out, copy=True), (x,), back)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in ts], axis=axis)

    def back(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(ts)))

    return _finish(out, tuple(ts), back)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in ts])[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return _finish(out, tuple(ts), back)


def upsample_nearest(x, factor: int) -> Tensor:
    """Repeat each entry of the trailing two axes factor x factor times."""
    x = _as_tensor(x)
    out = np.repeat(np.repeat(x.data, factor, axis=-2), factor, axis=-1)

    def back(g):
        h, w = x.shape[-2], x.shape[-1]
        g = g.reshape(*g.shape[:-2], h, factor, w, factor)
        return (g.sum(axis=(-3, -1)),)

    return _finish(out, (x,), back)


def gradcheck(f: Callable[[], Tensor], params: Sequence[Tensor],
              h: float = 1e-4, tol: float = 1e-4) -> dict:
    """Compare analytic gradients of a scalar function against central
    finite differences.

    f must rebuild its computation from the current contents of params each
    call. Returns a report with per-parameter max relative error; the whole
    evaluation runs in float64 so the differences are not drowned by
    float32 rounding.
    """
    if not (1e-5 <= h <= 1e-2):
        raise ValueError("h outside [1e-5, 1e-2]")
    with working_dtype(np.float64):
        saved = [p.data for p in params]
        for p in params:
            p.data = p.data.astype(np.float64)
        try:
            with Tape() as tape:
                loss = f()
                if not np.isfinite(loss.data).all():
                    raise NonFiniteError("gradcheck function is not finite")
                tape.backward(loss)
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

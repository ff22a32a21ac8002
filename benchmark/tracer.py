"""Timing shims around the library's public entry points.

The traced run replaces each entry point named in ENTRY_POINTS with a
wrapper that records a span (name, start, end, parent) and then calls the
original, so outputs are untouched. Every name is patched where it is
looked up: `model.py` imports the motion-module functions by name, so
they are patched in `model` as well as in `motion`. An entry point that no
longer exists is reported as absent instead of failing the run.

A span's self time is its duration minus the time its child spans cover.
Totals are kept per (root, family): the root is the benchmark-side span
that encloses the call (a streamed frame, a batch pass, a training step,
a set-up), the family is the per-layer metric the call feeds.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from time import perf_counter_ns

# family of every tensor op; an op's self time excludes nested ops and the
# tape record it makes, so the tensor families partition op time
TENSOR_FAMILIES = {
    "linear": "tensor.linear", "matmul": "tensor.linear",
    "bmm": "tensor.bmm",
    "softmax_rows": "tensor.softmax",
    "layer_norm": "tensor.layer_norm",
    "stack": "tensor.movement", "concat": "tensor.movement",
    "getitem": "tensor.movement", "reshape": "tensor.movement",
    "transpose": "tensor.movement", "upsample_nearest": "tensor.movement",
    "add": "tensor.elementwise", "sub": "tensor.elementwise",
    "mul": "tensor.elementwise", "div": "tensor.elementwise",
    "abs_": "tensor.elementwise", "relu": "tensor.elementwise",
    "sum_": "tensor.elementwise", "mean_": "tensor.elementwise",
}


def _out_bytes(out):
    return {"bytes": out.data.nbytes}


def _window_stats(out):
    return {"bytes": sum(a.nbytes for a in out), "fill": len(out)}


def _evicted(out):
    return {"evictions": int(out is not None)}


# (module, owner attribute or None, name, family, post-hook)
ENTRY_POINTS = (
    [("tensor", None, op, fam, _out_bytes)
     for op, fam in TENSOR_FAMILIES.items()]
    + [
        ("tensor", "Tape", "record", "tensor.record", None),
        ("tensor", "Tape", "backward", "tensor.backward", None),
        ("cache", "CacheBank", "push_evict", "cache.push", _evicted),
        ("cache", "CacheBank", "window", "cache.window", _window_stats),
        ("motion", None, "motion_module_forward_stream", "motion.stream",
         None),
        ("model", None, "motion_module_forward_stream", "motion.stream",
         None),
        ("motion", None, "motion_module_forward_batch", "motion.batch",
         None),
        ("model", None, "motion_module_forward_batch", "motion.batch",
         None),
        ("motion", None, "attend_streaming", "motion.attend", None),
        ("motion", None, "attend_batch_masked", "motion.attend", None),
        ("model", "EncoderStub", "encode_frame", "model.encode", None),
        ("model", "EncoderStub", "encode_sequence", "model.encode", None),
        ("model", "DepthModel", "head_forward_batch", "model.head_batch",
         None),
        ("model", "DepthModel", "new_session", "model.new_session", None),
        ("model", None, "load_checkpoint", "model.load_checkpoint", None),
        ("losses", None, "loss_ssi_scene", "losses.ssi", None),
        ("losses", None, "loss_tgm", "losses.tgm", None),
        ("losses", None, "loss_sascon", "losses.sascon", None),
        ("losses", None, "frame_augment", "losses.augment", None),
        ("losses", None, "train_step", "losses.train_step", None),
    ])


class Stat:
    """Totals for one (root, family) pair."""

    __slots__ = ("calls", "incl_ns", "self_ns", "extra")

    def __init__(self):
        self.calls = 0
        self.incl_ns = 0  # outermost spans of the family only
        self.self_ns = 0
        self.extra = Counter()


class NullTracer:
    """Stands in for a Tracer on untraced runs; roots cost one call."""

    _null = contextlib.nullcontext()

    def root(self, kind, units=1):
        return self._null


class Tracer:
    """In-memory span recorder with per-(root, family) totals."""

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self)
        self.stats: dict[tuple[str, str], Stat] = {}
        self.units: Counter = Counter()  # root kind -> operations covered
        self._stack: list[list[int]] = []  # [start_ns, child_ns, span_id]
        self._depth: Counter = Counter()
        self._root = "none"
        self._next_id = 0

    def push(self, family: str):
        self._depth[family] += 1
        self._stack.append([perf_counter_ns(), 0, self._next_id])
        self._next_id += 1

    def pop(self, name: str, family: str):
        end = perf_counter_ns()
        start, child, sid = self._stack.pop()
        dur = end - start
        self._depth[family] -= 1
        if self._stack:
            self._stack[-1][1] += dur
        key = (self._root, family)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        st.calls += 1
        st.self_ns += dur - child
        if self._depth[family] == 0:
            st.incl_ns += dur
        if self.keep_spans:
            parent = self._stack[-1][2] if self._stack else None
            self.spans.append((sid, parent, name, start, end, dur - child))

    def count(self, family: str, extra: dict):
        """Add computed counts (bytes, evictions) to the current root."""
        self.stats[(self._root, family)].extra.update(extra)

    @contextlib.contextmanager
    def root(self, kind: str, units: int = 1):
        """Benchmark-side span enclosing `units` operations of one kind."""
        prev, self._root = self._root, kind
        self.push(kind)
        try:
            yield
        finally:
            self.pop(kind, kind)
            self._root = prev
            self.units[kind] += units

    def stat(self, root: str, family: str) -> Stat:
        return self.stats.get((root, family)) or Stat()

    def family_total(self, family: str) -> Stat:
        """One family's totals summed over every root."""
        total = Stat()
        for (_, fam), st in self.stats.items():
            if fam == family:
                total.calls += st.calls
                total.incl_ns += st.incl_ns
                total.self_ns += st.self_ns
                total.extra.update(st.extra)
        return total


def _wrap(tracer: Tracer, fn, name: str, family: str, post):
    def shim(*args, **kwargs):
        tracer.push(family)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.pop(name, family)
        if post is not None:
            tracer.count(family, post(out))
        return out

    shim.__name__ = getattr(fn, "__name__", name)
    shim.__wrapped__ = fn
    return shim


@contextlib.contextmanager
def installed(tracer: Tracer, package: str = "depthstream"):
    """Patch every entry point for the duration of the block.

    Yields the list of entry points that could not be found.
    """
    absent: list[str] = []
    undo: list[tuple[object, str, object]] = []
    try:
        for mod_name, owner_name, attr, family, post in ENTRY_POINTS:
            label = ".".join(filter(None, (mod_name, owner_name, attr)))
            try:
                owner = importlib.import_module(f"{package}.{mod_name}")
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                fn = owner.__dict__[attr] if owner_name else getattr(owner,
                                                                     attr)
            except (ImportError, AttributeError, KeyError):
                absent.append(label)
                continue
            undo.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, label, family, post))
        yield absent
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

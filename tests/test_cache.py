import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthstream.cache import CacheBank
from depthstream.tensor import NonFiniteError


def lat(v, size=8):
    return np.full(size, float(v), dtype=np.float32)


def indices(bank):
    """Push indices in a bank's window, newest first, read from latents
    filled with their own index."""
    return [int(w[0]) for w in bank.window()]


def index(latent):
    """The index an evicted latent was filled with, or None."""
    return None if latent is None else int(latent[0])


class TestFeatureCache:
    """The plain FIFO: a bank with modulus 1, whose window is every stored
    entry."""

    def test_fifo_eviction_schedule(self):
        c = CacheBank(3, 1)
        evictions = [index(c.push_evict(lat(i))) for i in range(5)]
        assert evictions == [None, None, None, 0, 1]
        assert indices(c) == [4, 3, 2]

    def test_capacity_one(self):
        c = CacheBank(1, 1)
        for i in range(4):
            c.push_evict(lat(i))
            assert indices(c) == [i]

    def test_evicted_latent_is_returned(self):
        # the bank hands back the latent itself, as it stored it: in fp16
        # that is the rounded copy
        c = CacheBank(1, 2, "fp16")
        first = np.random.default_rng(0).normal(size=(3, 2)).astype(
            np.float32)
        assert c.push_evict(first) is None
        assert c.push_evict(lat(1, 6).reshape(3, 2)) is None
        evicted = c.push_evict(lat(2, 6).reshape(3, 2))
        assert evicted.dtype == np.float16
        np.testing.assert_array_equal(evicted, first.astype(np.float16))

    @pytest.mark.parametrize("precision,value", [
        ("fp32", np.nan), ("fp32", np.inf),
        # the cast to fp16 overflows on purpose, and numpy warns
        pytest.param("fp16", 7e4, marks=pytest.mark.filterwarnings(
            "ignore::RuntimeWarning"))])
    def test_non_finite_rejected_before_evicting(self, precision, value):
        # 7e4 is finite in fp32 but overflows fp16's 65504
        c = CacheBank(2, 1, precision)
        for i in range(2):
            c.push_evict(lat(i))
        bad = lat(2)
        bad[3] = value
        with pytest.raises(NonFiniteError):
            c.push_evict(bad)
        assert indices(c) == [1, 0]
        assert index(c.push_evict(lat(2))) == 0

    def test_latent_of_another_shape_refused(self):
        c = CacheBank(2, 1)
        c.push_evict(np.zeros((4, 2), np.float32))
        c.push_evict(np.ones((4, 2), np.float32))
        before = c.window()
        with pytest.raises(ValueError, match=r"shape \(5, 2\) is not the "
                           r"stored \(4, 2\)"):
            c.push_evict(np.ones((5, 2), np.float32))
        assert len(c) == 2
        np.testing.assert_array_equal(c.window(), before)
        np.testing.assert_array_equal(
            c.push_evict(np.ones((4, 2), np.float32)), np.zeros((4, 2)))

    def test_window_order_and_snapshot(self):
        c = CacheBank(3, 1)
        for i in range(5):
            c.push_evict(lat(i))
        win = c.window()
        assert [w[0] for w in win] == [4.0, 3.0, 2.0]
        c.push_evict(lat(5))
        # snapshot is unaffected by subsequent pushes
        assert [w[0] for w in win] == [4.0, 3.0, 2.0]

    def test_empty_window(self):
        win = CacheBank(4).window()
        assert win.shape[0] == 0 and win.dtype == np.float32

    def test_fp16_rounding(self):
        c = CacheBank(2, 1, precision="fp16")
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.5, 2.0, 64).astype(np.float32)
        c.push_evict(vals)
        stored = c.window()[0]
        np.testing.assert_array_equal(stored,
                                      vals.astype(np.float16).astype(np.float32))
        assert np.max(np.abs(stored - vals)) <= 2.0 ** -11 * np.max(np.abs(vals))

    def test_footprint_arithmetic(self):
        c = CacheBank(16, 1)
        assert c.memory_footprint() == 0
        for i in range(16):
            c.push_evict(np.zeros(1024, dtype=np.float32))
        assert c.memory_footprint() == 16 * 1024 * 4
        h = CacheBank(16, 1, precision="fp16")
        for i in range(16):
            h.push_evict(np.zeros(1024, dtype=np.float32))
        assert h.memory_footprint() == 16 * 1024 * 2

    @given(st.integers(1, 8), st.lists(st.integers(0, 3), min_size=1,
                                       max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_fifo_invariants_random_schedules(self, capacity, gaps):
        c = CacheBank(capacity, 1)
        pushed, evicted = [], []
        idx = 0
        footprints = [c.memory_footprint()]
        for gap in gaps:
            idx += 1 + gap
            ev = index(c.push_evict(lat(idx)))
            pushed.append(idx)
            if ev is not None:
                evicted.append(ev)
            assert len(c) <= capacity
            footprints.append(c.memory_footprint())
        # eviction order equals insertion order
        assert evicted == pushed[:len(evicted)]
        assert indices(c) == pushed[len(evicted):][::-1]
        # footprint non-decreasing until full, then constant
        grow = footprints[:capacity + 1]
        assert grow == sorted(grow)
        assert len(set(footprints[capacity:])) <= 1


class TestCacheBank:
    @pytest.mark.parametrize("precision", ["fp8", "FP16", None])
    def test_unknown_precision_rejected(self, precision):
        with pytest.raises(ValueError):
            CacheBank(2, precision=precision)

    def test_single_cache_degenerate(self):
        bank = CacheBank(3, 1)
        plain = collections.deque(maxlen=3)
        for i in range(10):
            bank.push_evict(lat(i))
            plain.appendleft(i)
            assert indices(bank) == list(plain)

    def test_documented_routing(self):
        # with m = 2 the window of frame t holds frames of t's residue mod 2
        bank = CacheBank(2, 2)
        windows = []
        for i in range(6):
            bank.push_evict(lat(i))
            windows.append(indices(bank))
        assert windows[4] == [4, 2]
        assert windows[5] == [5, 3]
        assert len(bank) == 4

    def test_equally_spaced_frames_per_cache(self):
        bank = CacheBank(4, 2)
        for i in range(20):
            bank.push_evict(lat(i))
            if i >= 4:
                diffs = np.diff(indices(bank))
                assert (diffs == -2).all()

    def test_closed_form_schedule(self):
        # frames 0, 1, 2, ...: window t..0 while t < c, then the first c
        # of t, t - m, ...; the bank keeps the last m * c frames
        size = 8
        for precision, per_entry in (("fp32", 4 * size), ("fp16", 2 * size)):
            for c, m in itertools.product(range(1, 7), range(1, 5)):
                bank = CacheBank(c, m, precision)
                assert bank.memory_footprint() == 0
                assert len(bank) == 0
                for t in range(6 * m * c):
                    evicted = index(bank.push_evict(lat(t, size)))
                    assert evicted == (t - m * c if t >= m * c else None)
                    want = list(range(t, -1, -1)) if t < c else \
                        list(range(t, -1, -m))[:c]
                    assert indices(bank) == want, (c, m, t)
                    assert bank.memory_footprint() == \
                        min(t + 1, m * c) * per_entry

    def test_warmup_window_never_empty(self):
        bank = CacheBank(4, 3)
        for i in range(20):
            bank.push_evict(lat(i))
            assert len(bank.window()) >= 1

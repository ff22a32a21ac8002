import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthstream.cache import (CacheBank, FeatureCache, OutOfOrderFrame,
                               PrecisionMode)


def lat(v, size=8):
    return np.full(size, float(v), dtype=np.float32)


class TestFeatureCache:
    def test_fifo_eviction_schedule(self):
        c = FeatureCache(3)
        evictions = [c.push_evict(i, lat(i)) for i in range(5)]
        assert evictions == [None, None, None, 0, 1]
        assert c.indices() == [2, 3, 4]

    def test_capacity_one(self):
        c = FeatureCache(1)
        for i in range(4):
            c.push_evict(i, lat(i))
            assert c.indices() == [i]

    def test_out_of_order_rejected(self):
        c = FeatureCache(2)
        c.push_evict(3, lat(3))
        with pytest.raises(OutOfOrderFrame):
            c.push_evict(3, lat(3))
        with pytest.raises(OutOfOrderFrame):
            c.push_evict(1, lat(1))

    def test_window_order_and_snapshot(self):
        c = FeatureCache(3)
        for i in range(5):
            c.push_evict(i, lat(i))
        win = c.window()
        assert [w[0] for w in win] == [2.0, 3.0, 4.0]
        c.push_evict(5, lat(5))
        # snapshot is unaffected by subsequent pushes
        assert [w[0] for w in win] == [2.0, 3.0, 4.0]

    def test_empty_window(self):
        win = FeatureCache(4).window()
        assert win.shape[0] == 0 and win.dtype == np.float32

    def test_fp16_rounding(self):
        c = FeatureCache(2, precision=PrecisionMode.EMULATED16)
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.5, 2.0, 64).astype(np.float32)
        c.push_evict(0, vals)
        stored = c.window()[0]
        np.testing.assert_array_equal(stored,
                                      vals.astype(np.float16).astype(np.float32))
        assert np.max(np.abs(stored - vals)) <= 2.0 ** -11 * np.max(np.abs(vals))

    def test_footprint_arithmetic(self):
        c = FeatureCache(16)
        assert c.memory_footprint() == 0
        for i in range(16):
            c.push_evict(i, np.zeros(1024, dtype=np.float32))
        assert c.memory_footprint() == 16 * 1024 * 4
        h = FeatureCache(16, precision=PrecisionMode.EMULATED16)
        for i in range(16):
            h.push_evict(i, np.zeros(1024, dtype=np.float32))
        assert h.memory_footprint() == 16 * 1024 * 2

    @given(st.integers(1, 8), st.lists(st.integers(0, 3), min_size=1,
                                       max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_fifo_invariants_random_schedules(self, capacity, gaps):
        c = FeatureCache(capacity)
        pushed, evicted = [], []
        idx = 0
        footprints = [c.memory_footprint()]
        for gap in gaps:
            idx += 1 + gap
            ev = c.push_evict(idx, lat(idx))
            pushed.append(idx)
            if ev is not None:
                evicted.append(ev)
            assert len(c) <= capacity
            footprints.append(c.memory_footprint())
        # eviction order equals insertion order
        assert evicted == pushed[:len(evicted)]
        assert c.indices() == pushed[len(evicted):]
        # footprint non-decreasing until full, then constant
        grow = footprints[:capacity + 1]
        assert grow == sorted(grow)
        assert len(set(footprints[capacity:])) <= 1


class TestCacheBank:
    def test_single_cache_degenerate(self):
        bank = CacheBank(3, 1)
        plain = FeatureCache(3)
        for i in range(10):
            bank.push_evict(i, lat(i))
            plain.push_evict(i, lat(i))
            got = [w[0] for w in bank.window(i)]
            want = [w[0] for w in plain.window()]
            assert got == want

    def test_documented_routing(self):
        bank = CacheBank(2, 2)
        for i in range(6):
            bank.push_evict(i, lat(i))
        assert bank.caches[0].indices() == [2, 4]
        assert bank.caches[1].indices() == [3, 5]

    def test_effective_span(self):
        for m in (1, 2, 3):
            bank = CacheBank(4, m)
            for i in range(40):
                bank.push_evict(i, lat(i))
            # stored indices span roughly m * capacity frames
            assert bank.span() == pytest.approx(m * 4, abs=m)

    def test_warmup_window_never_empty(self):
        bank = CacheBank(4, 3)
        for i in range(20):
            bank.push_evict(i, lat(i))
            assert len(bank.window(i)) >= 1

    def test_equally_spaced_frames_per_cache(self):
        bank = CacheBank(4, 2)
        for i in range(20):
            bank.push_evict(i, lat(i))
        for cache in bank.caches:
            diffs = np.diff(cache.indices())
            assert (diffs == 2).all()

    def test_clear_resets(self):
        bank = CacheBank(2, 2)
        for i in range(6):
            bank.push_evict(i, lat(i))
        bank.clear()
        assert bank.memory_footprint() == 0
        assert bank.warmup_counter == 0
        bank.push_evict(0, lat(0))
        assert bank.route(0) == 0

from dataclasses import fields

import numpy as np
import pytest

from depthstream import tensor as T
from depthstream.cache import CacheBank
from depthstream.motion import (MotionModuleParams, attend_batch_masked,
                                attend_streaming, fold, initial_arrays,
                                motion_module_forward_batch,
                                motion_module_forward_stream)
from depthstream.tensor import Tensor, gradcheck


def make_params(channels=8, context=4, seed=0, trainable=False):
    arrays = initial_arrays(MotionModuleParams.layout(channels, context),
                            np.random.default_rng(seed))
    return MotionModuleParams(*(Tensor(a, requires_grad=trainable)
                                for a in arrays))


def module_tensors(params):
    return [getattr(params, f.name) for f in fields(params)]


def rand_latents(n, s, c, seed=0):
    return np.random.default_rng(seed).normal(size=(n, s, c)).astype(np.float32)


def frame(latent):
    """One frame's [S, C] latents in the streaming layout [S, 1, C]."""
    return Tensor(latent[:, None])


def dense_attention_oracle(seq, params, band=None):
    """Brute-force causal-banded attention without any caching: dense
    per-token computation straight from the definition, keys and values
    projected from the positionally encoded latents."""
    n, s, c = seq.shape
    band = params.pe_table.shape[0] if band is None else band
    out = np.zeros_like(seq)
    for tok in range(s):
        for q in range(n):
            lo = max(0, q - band + 1)
            qv = seq[q, tok] @ params.wq.data + params.bq.data
            scores, vals = [], []
            for k in range(lo, q + 1):
                age = q - k
                key_in = seq[k, tok] + params.pe_table.data[age]
                scores.append((qv @ (key_in @ params.wk.data
                                     + params.bk.data)) / np.sqrt(c))
                vals.append(key_in @ params.wv.data + params.bv.data)
            w = np.exp(scores - np.max(scores))
            w = w / w.sum()
            ctx = np.sum(w[:, None] * np.array(vals), axis=0)
            out[q, tok] = ctx @ params.wo.data + params.bo.data
    return out


class TestAttendStreaming:
    def test_empty_window_rejected(self):
        params = make_params()
        with pytest.raises(ValueError):
            attend_streaming(Tensor(rand_latents(4, 1, 8)), [], fold(params))

    def test_oversized_window_rejected(self):
        params = make_params(context=2)
        x = rand_latents(3, 4, 8)
        with pytest.raises(ValueError):
            attend_streaming(frame(x[0]), list(x), fold(params))

    def test_uniform_weights_symmetry(self):
        # identical latents + zero PE: output independent of window length
        params = make_params()
        params.pe_table = Tensor(np.zeros_like(params.pe_table.data))
        x = rand_latents(1, 4, 8, seed=5)[0]
        outs = [attend_streaming(frame(x), [x] * w, fold(params)).data
                for w in (1, 2, 4)]
        for o in outs[1:]:
            np.testing.assert_allclose(o, outs[0], atol=1e-6)

    def test_matches_dense_oracle(self):
        params = make_params(channels=8, context=4, seed=7)
        seq = rand_latents(3, 4, 8, seed=8)
        dense = dense_attention_oracle(seq, params)
        got = attend_streaming(frame(seq[2]), list(seq), fold(params)).data
        np.testing.assert_allclose(got[:, 0], dense[2], atol=1e-6)


class TestAttendBatchMasked:
    @pytest.mark.parametrize("n, band", [(1, 4), (3, 4), (7, 3), (9, 4)])
    def test_every_frame_matches_dense_oracle(self, n, band):
        # fewer frames than the band, as many, and more
        params = make_params(channels=8, context=4, seed=21)
        seq = rand_latents(n, 4, 8, seed=22)
        got = attend_batch_masked(Tensor(seq), band, fold(params)).data
        np.testing.assert_allclose(got, dense_attention_oracle(seq, params,
                                                               band=band),
                                   atol=1e-5)

    def test_softmax_runs_over_ages_not_keys(self, monkeypatch):
        # 9 frames under band 3: a row holds the 3 ages, not the 9 keys
        softmax, shapes = T.softmax_rows, []

        def record(x):
            shapes.append(x.shape)
            return softmax(x)

        monkeypatch.setattr(T, "softmax_rows", record)
        attend_batch_masked(Tensor(rand_latents(9, 4, 8, seed=33)), 3,
                            fold(make_params()))
        assert shapes == [(4, 9, 3)]

    def test_single_frame_equals_streaming(self):
        params = make_params()
        seq = rand_latents(1, 4, 8, seed=9)
        batch = attend_batch_masked(Tensor(seq), 4, fold(params))
        stream = attend_streaming(frame(seq[0]), [seq[0]], fold(params))
        np.testing.assert_allclose(batch.data[0], stream.data[:, 0],
                                   atol=1e-7)

    def test_wide_band_is_plain_causal(self):
        # a band wider than the position table raises, as an oversized
        # stream window does; band = table rows over fewer frames sees
        # every earlier frame
        params = make_params(context=8)
        seq = rand_latents(5, 4, 8, seed=10)
        for band in (9, 10 ** 6):
            with pytest.raises(ValueError, match="band"):
                attend_batch_masked(Tensor(seq), band, fold(params))
        wide = attend_batch_masked(Tensor(seq), 8, fold(params)).data
        np.testing.assert_allclose(wide, dense_attention_oracle(seq, params,
                                                                band=5),
                                   atol=1e-5)

    @pytest.mark.parametrize("band", [0, -2])
    def test_band_below_one_rejected(self, band):
        # band 0 would mask nothing and let every frame see the future
        seq = rand_latents(4, 2, 8, seed=10)
        with pytest.raises(ValueError, match="band"):
            attend_batch_masked(Tensor(seq), band, fold(make_params()))

    def test_no_fancy_index_in_either_mode(self, monkeypatch):
        # the kernel moves scores and weights by skew and reversed slices,
        # so each index it takes is basic and reads a view
        getitem = T.getitem

        def basic_only(x, idx):
            out = getitem(x, idx)
            assert np.may_share_memory(x.data[idx], x.data), idx
            return out

        monkeypatch.setattr(T, "getitem", basic_only)
        params = make_params(channels=8, context=4, seed=11, trainable=True)
        seq = rand_latents(6, 4, 8, seed=12)
        with T.Tape() as tape:
            out = attend_batch_masked(Tensor(seq), 3, fold(params))
            tape.backward(T.sum_(T.mul(out, out)))
        assert params.pe_table.grad is not None
        attend_streaming(frame(seq[2]), list(seq[:3]), fold(params))

    def test_per_frame_equals_streaming_pipeline(self):
        params = make_params(channels=8, context=4, seed=11)
        seq = rand_latents(6, 4, 8, seed=12)
        batch = attend_batch_masked(Tensor(seq), 4, fold(params)).data
        window: list[np.ndarray] = []
        for q in range(6):
            window.append(seq[q])
            if len(window) > 4:
                window.pop(0)
            got = attend_streaming(frame(seq[q]), list(window),
                                   fold(params)).data
            np.testing.assert_allclose(got[:, 0], batch[q], atol=1e-5)

    def test_attention_rows_sum_to_one(self):
        # indirect: uniform-value window must return the value itself
        params = make_params()
        params.pe_table = Tensor(np.zeros_like(params.pe_table.data))
        x = rand_latents(1, 4, 8, seed=13)[0]
        v_expected = (x + 0) @ params.wv.data + params.bv.data
        got = attend_streaming(frame(x), [x, x, x], fold(params)).data
        np.testing.assert_allclose(
            got[:, 0], v_expected @ params.wo.data + params.bo.data,
            atol=1e-5)


class TestMotionModule:
    def test_zero_output_projection_is_identity(self):
        params = make_params()
        params.wo = Tensor(np.zeros_like(params.wo.data))
        params.bo = Tensor(np.zeros_like(params.bo.data))
        x = Tensor(rand_latents(5, 4, 8, seed=14))
        out = motion_module_forward_batch(x, 4, fold(params))
        np.testing.assert_array_equal(out.data, x.data)

    def test_batch_vs_stream_equivalence(self):
        params = make_params(channels=8, context=4, seed=15)
        seq = rand_latents(8, 4, 8, seed=16)
        batch = motion_module_forward_batch(Tensor(seq), 4, fold(params)).data
        bank = CacheBank(4, 1)
        folded = fold(params)
        for t in range(8):
            got = motion_module_forward_stream(frame(seq[t]), t, bank,
                                               folded).data
            np.testing.assert_allclose(got[:, 0], batch[t], atol=1e-5)

    def test_causality(self):
        params = make_params(channels=8, context=4, seed=17)
        seq = rand_latents(6, 4, 8, seed=18)
        base = motion_module_forward_batch(Tensor(seq), 4, fold(params)).data
        perturbed = seq.copy()
        perturbed[4:] += 3.0
        out = motion_module_forward_batch(Tensor(perturbed), 4,
                                          fold(params)).data
        np.testing.assert_allclose(out[:4], base[:4], atol=1e-6)

    @staticmethod
    def _gradcheck_batch(n, band, seed):
        params = make_params(channels=4, context=3, seed=seed, trainable=True)
        seq = rand_latents(n, 2, 4, seed=seed + 1)
        tensors = module_tensors(params)

        def f():
            out = motion_module_forward_batch(Tensor(seq), band, fold(params))
            return T.mean_(T.mul(out, out))

        rep = gradcheck(f, tensors)
        assert rep["passed"], rep

    def test_gradcheck_batch_mode(self):
        self._gradcheck_batch(3, 3, seed=19)

    def test_gradcheck_batch_mode_masked_entries(self):
        # N = 5 > band = 2: masked pairs and the age tables are in play
        self._gradcheck_batch(5, 2, seed=23)

    def test_gradcheck_stream_mode(self):
        # a taped streaming step through the fold and the kernel's
        # one-query path; the window is a constant copy of the latents
        params = make_params(channels=4, context=3, seed=29, trainable=True)
        seq = rand_latents(3, 2, 4, seed=30)
        current = Tensor(seq[2][:, None], requires_grad=True)
        tensors = module_tensors(params) + [current]

        def f():
            out = attend_streaming(current, list(seq), fold(params))
            return T.mean_(T.mul(out, out))

        rep = gradcheck(f, tensors)
        assert rep["passed"], rep

    def test_gradcheck_stream_mode_short_window(self):
        # a window shorter than the context reads a slice of the pe table
        params = make_params(channels=4, context=3, seed=31, trainable=True)
        seq = rand_latents(2, 2, 4, seed=32)
        tensors = module_tensors(params)

        def f():
            out = attend_streaming(frame(seq[1]), list(seq), fold(params))
            return T.mean_(T.mul(out, out))

        rep = gradcheck(f, tensors)
        assert rep["passed"], rep

    def test_key_bias_drops_out(self):
        # q.bk is the same for every key, so the softmax cancels it
        params = make_params(channels=8, context=4, seed=25)
        seq = rand_latents(6, 4, 8, seed=26)

        def outputs():
            batch = motion_module_forward_batch(Tensor(seq), 4, fold(params)).data
            bank = CacheBank(4, 1)
            folded = fold(params)
            stream = [motion_module_forward_stream(frame(seq[t]), t, bank,
                                                   folded).data[:, 0]
                      for t in range(6)]
            return batch, np.stack(stream)

        before = outputs()
        params.bk = Tensor(np.random.default_rng(27).normal(size=8))
        after = outputs()
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

import numpy as np
import pytest

from depthstream import tensor as T
from depthstream.cache import CacheBank
from depthstream.motion import (MotionModuleParams, WindowedMask,
                                attend_batch_masked, attend_streaming,
                                motion_module_forward_batch,
                                motion_module_forward_stream)
from depthstream.tensor import Tensor, gradcheck


def make_params(channels=8, context=4, seed=0, trainable=False):
    return MotionModuleParams.init(channels, context,
                                   np.random.default_rng(seed),
                                   trainable=trainable)


def rand_latents(n, s, c, seed=0):
    return np.random.default_rng(seed).normal(size=(n, s, c)).astype(np.float32)


def dense_attention_oracle(seq, params, band=None):
    """Brute-force causal-banded attention without any caching: dense
    per-token computation straight from the definition, keys and values
    projected from the positionally encoded latents."""
    n, s, c = seq.shape
    band = params.context if band is None else band
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
            attend_streaming(Tensor(rand_latents(1, 4, 8)[0]), [], params)

    def test_oversized_window_rejected(self):
        params = make_params(context=2)
        x = rand_latents(3, 4, 8)
        with pytest.raises(ValueError):
            attend_streaming(Tensor(x[0]), list(x), params)

    def test_uniform_weights_symmetry(self):
        # identical latents + zero PE: output independent of window length
        params = make_params()
        params.pe_table = Tensor(np.zeros_like(params.pe_table.data))
        x = rand_latents(1, 4, 8, seed=5)[0]
        outs = [attend_streaming(Tensor(x), [x] * w, params).data
                for w in (1, 2, 4)]
        for o in outs[1:]:
            np.testing.assert_allclose(o, outs[0], atol=1e-6)

    def test_matches_dense_oracle(self):
        params = make_params(channels=8, context=4, seed=7)
        seq = rand_latents(3, 4, 8, seed=8)
        dense = dense_attention_oracle(seq, params)
        got = attend_streaming(Tensor(seq[2]), list(seq), params).data
        np.testing.assert_allclose(got, dense[2], atol=1e-6)


class TestAttendBatchMasked:
    def test_every_frame_matches_dense_oracle(self):
        params = make_params(channels=8, context=4, seed=21)
        seq = rand_latents(7, 4, 8, seed=22)
        got = attend_batch_masked(Tensor(seq), WindowedMask(3, 7),
                                  params).data
        np.testing.assert_allclose(got, dense_attention_oracle(seq, params,
                                                               band=3),
                                   atol=1e-5)

    def test_single_frame_equals_streaming(self):
        params = make_params()
        seq = rand_latents(1, 4, 8, seed=9)
        batch = attend_batch_masked(Tensor(seq), WindowedMask(4, 1), params)
        stream = attend_streaming(Tensor(seq[0]), [seq[0]], params)
        np.testing.assert_allclose(batch.data[0], stream.data, atol=1e-7)

    def test_wide_band_is_plain_causal(self):
        params = make_params(context=8)
        seq = rand_latents(5, 4, 8, seed=10)
        wide = attend_batch_masked(Tensor(seq), WindowedMask(10 ** 6, 5),
                                   params).data
        exact = attend_batch_masked(Tensor(seq), WindowedMask(8, 5),
                                    params).data
        np.testing.assert_allclose(wide, exact, atol=1e-7)

    def test_per_frame_equals_streaming_pipeline(self):
        params = make_params(channels=8, context=4, seed=11)
        seq = rand_latents(6, 4, 8, seed=12)
        batch = attend_batch_masked(Tensor(seq), WindowedMask(4, 6),
                                    params).data
        window: list[np.ndarray] = []
        for q in range(6):
            window.append(seq[q])
            if len(window) > 4:
                window.pop(0)
            got = attend_streaming(Tensor(seq[q]), list(window), params).data
            np.testing.assert_allclose(got, batch[q], atol=1e-5)

    def test_mask_matrix_band(self):
        m = WindowedMask(2, 4).matrix()
        expected = np.array([[1, 0, 0, 0], [1, 1, 0, 0],
                             [0, 1, 1, 0], [0, 0, 1, 1]], dtype=bool)
        np.testing.assert_array_equal(m, expected)

    def test_attention_rows_sum_to_one(self):
        # indirect: uniform-value window must return the value itself
        params = make_params()
        params.pe_table = Tensor(np.zeros_like(params.pe_table.data))
        x = rand_latents(1, 4, 8, seed=13)[0]
        v_expected = (x + 0) @ params.wv.data + params.bv.data
        got = attend_streaming(Tensor(x), [x, x, x], params).data
        np.testing.assert_allclose(
            got, v_expected @ params.wo.data + params.bo.data, atol=1e-5)


class TestMotionModule:
    def test_zero_output_projection_is_identity(self):
        params = make_params()
        params.wo = Tensor(np.zeros_like(params.wo.data))
        params.bo = Tensor(np.zeros_like(params.bo.data))
        x = Tensor(rand_latents(5, 4, 8, seed=14))
        out = motion_module_forward_batch(x, WindowedMask(4, 5), params)
        np.testing.assert_array_equal(out.data, x.data)

    def test_batch_vs_stream_equivalence(self):
        params = make_params(channels=8, context=4, seed=15)
        seq = rand_latents(8, 4, 8, seed=16)
        batch = motion_module_forward_batch(Tensor(seq), WindowedMask(4, 8),
                                            params).data
        bank = CacheBank(4, 1)
        for t in range(8):
            got = motion_module_forward_stream(Tensor(seq[t]), t, bank,
                                               params).data
            np.testing.assert_allclose(got, batch[t], atol=1e-5)

    def test_causality(self):
        params = make_params(channels=8, context=4, seed=17)
        seq = rand_latents(6, 4, 8, seed=18)
        base = motion_module_forward_batch(Tensor(seq), WindowedMask(4, 6),
                                           params).data
        perturbed = seq.copy()
        perturbed[4:] += 3.0
        out = motion_module_forward_batch(Tensor(perturbed),
                                          WindowedMask(4, 6), params).data
        np.testing.assert_allclose(out[:4], base[:4], atol=1e-6)

    @staticmethod
    def _gradcheck_batch(n, band, seed):
        params = make_params(channels=4, context=3, seed=seed, trainable=True)
        seq = rand_latents(n, 2, 4, seed=seed + 1)
        tensors = [t for _, t in params.named_tensors()]

        def f():
            out = motion_module_forward_batch(Tensor(seq),
                                              WindowedMask(band, n), params)
            return T.mean_(T.mul(out, out))

        rep = gradcheck(f, tensors)
        assert rep["passed"], rep

    def test_gradcheck_batch_mode(self):
        self._gradcheck_batch(3, 3, seed=19)

    def test_gradcheck_batch_mode_masked_entries(self):
        # N = 5 > band = 2: masked pairs and the age tables are in play
        self._gradcheck_batch(5, 2, seed=23)

    def test_key_bias_drops_out(self):
        # q.bk is the same for every key, so the softmax cancels it
        params = make_params(channels=8, context=4, seed=25)
        seq = rand_latents(6, 4, 8, seed=26)

        def outputs():
            batch = motion_module_forward_batch(
                Tensor(seq), WindowedMask(4, 6), params).data
            bank = CacheBank(4, 1)
            stream = [motion_module_forward_stream(Tensor(seq[t]), t, bank,
                                                   params).data
                      for t in range(6)]
            return batch, np.stack(stream)

        before = outputs()
        params.bk = Tensor(np.random.default_rng(27).normal(size=8))
        after = outputs()
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

import numpy as np
import pytest

from depthstream.cache import PrecisionMode
from depthstream.model import (DepthModel, ModelConfig, SessionMisuse,
                               load_checkpoint, save_checkpoint)
from depthstream.tensor import Tape


@pytest.fixture
def cfg():
    return ModelConfig(height=16, width=16, patch_size=4, encoder_channels=8,
                       head_channels=8, num_motion_modules=2, context=4,
                       seed=42)


@pytest.fixture
def model(cfg):
    return DepthModel(cfg)


def rand_rgb(n, cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, cfg.height, cfg.width, 3)).astype(np.float32)


class TestEncoder:
    def test_deterministic(self, model, cfg):
        frame = rand_rgb(1, cfg)[0]
        np.testing.assert_array_equal(model.encoder.encode_frame(frame),
                                      model.encoder.encode_frame(frame))

    def test_zero_frame_gives_bias(self, model, cfg):
        feats = model.encoder.encode_frame(
            np.zeros((cfg.height, cfg.width, 3), dtype=np.float32))
        np.testing.assert_allclose(
            feats, np.tile(model.encoder.bias, (cfg.tokens, 1)))

    def test_patch_locality(self, model, cfg):
        a = rand_rgb(1, cfg, seed=1)[0]
        b = a.copy()
        b[:cfg.patch_size, :cfg.patch_size] += 0.25  # modify patch (0, 0)
        fa, fb = model.encoder.encode_frame(a), model.encoder.encode_frame(b)
        diff = np.abs(fa - fb).sum(axis=1)
        assert diff[0] > 0
        np.testing.assert_array_equal(diff[1:], 0)

    def test_frame_locality_in_sequence(self, model, cfg):
        seq = rand_rgb(4, cfg, seed=2)
        feats = model.encoder.encode_sequence(seq)
        seq2 = seq.copy()
        seq2[3] = 0.0
        feats2 = model.encoder.encode_sequence(seq2)
        np.testing.assert_array_equal(feats[:3], feats2[:3])

    def test_bad_shape_rejected(self, model):
        with pytest.raises(ValueError):
            model.encoder.encode_frame(np.zeros((8, 8, 3)))


class TestBatchForward:
    def test_zeroed_motion_path_is_frame_local(self, model, cfg):
        for mm in model.motions:
            mm.wo.data = np.zeros_like(mm.wo.data)
            mm.bo.data = np.zeros_like(mm.bo.data)
        seq = rand_rgb(5, cfg, seed=3)
        full = model.forward_batch(seq)
        per_frame = np.concatenate(
            [model.forward_batch(seq[i:i + 1]) for i in range(5)])
        np.testing.assert_allclose(full, per_frame, atol=1e-6)

    def test_no_cross_sequence_flow(self, model, cfg):
        a = rand_rgb(3, cfg, seed=4)
        b = rand_rgb(3, cfg, seed=5)
        out_a = model.forward_batch(a)
        out_a2 = model.forward_batch(a)  # rerun, other sequences irrelevant
        model.forward_batch(b)
        np.testing.assert_array_equal(out_a, out_a2)

    def test_output_shape_and_finite(self, model, cfg):
        out = model.forward_batch(rand_rgb(2, cfg, seed=6))
        assert out.shape == (2, cfg.height, cfg.width)
        assert np.isfinite(out).all()


class TestStreamingEquivalence:
    @pytest.mark.parametrize("n_kind", ["one", "c_minus_1", "c", "c_plus_5",
                                        "three_c"])
    def test_end_to_end(self, model, cfg, n_kind):
        c = cfg.context
        n = {"one": 1, "c_minus_1": c - 1, "c": c, "c_plus_5": c + 5,
             "three_c": 3 * c}[n_kind]
        seq = rand_rgb(n, cfg, seed=7)
        batch = model.forward_batch(seq)
        session = model.new_session()
        stream = np.stack([session.step_rgb(f) for f in seq])
        assert np.max(np.abs(batch - stream)) < 1e-5

    def test_first_frame_matches_length1_batch(self, model, cfg):
        seq = rand_rgb(1, cfg, seed=8)
        session = model.new_session()
        np.testing.assert_allclose(session.step_rgb(seq[0]),
                                   model.forward_batch(seq)[0], atol=1e-6)


class TestSession:
    def test_reset_then_replay_identical(self, model, cfg):
        seq = rand_rgb(6, cfg, seed=9)
        session = model.new_session()
        first = np.stack([session.step_rgb(f) for f in seq])
        session.reset()
        second = np.stack([session.step_rgb(f) for f in seq])
        np.testing.assert_array_equal(first, second)

    def test_reset_on_fresh_session_noop(self, model):
        session = model.new_session()
        session.reset()
        assert session.t == 0
        assert session.memory_footprint() == 0

    def test_footprint_constant_after_warmup(self, model, cfg):
        seq = rand_rgb(3 * cfg.context, cfg, seed=10)
        session = model.new_session()
        footprints = []
        for f in seq:
            session.step_rgb(f)
            footprints.append(session.memory_footprint())
        c = cfg.context
        assert len(set(footprints[c - 1:])) == 1
        expected = (cfg.num_motion_modules * c * cfg.tokens
                    * cfg.head_channels * 4)
        assert footprints[-1] == expected

    def test_fp16_footprint_half(self, model, cfg):
        seq = rand_rgb(cfg.context, cfg, seed=11)
        s32 = model.new_session()
        s16 = model.new_session(precision=PrecisionMode.EMULATED16)
        for f in seq:
            s32.step_rgb(f)
            s16.step_rgb(f)
        assert s16.memory_footprint() * 2 == s32.memory_footprint()

    def test_multi_frame_step_rejected(self, model, cfg):
        session = model.new_session()
        with pytest.raises(SessionMisuse):
            session.head_forward_stream(np.zeros((2, cfg.tokens,
                                                  cfg.encoder_channels)))

    def test_determinism_across_models(self, cfg):
        seq = rand_rgb(4, cfg, seed=12)
        out1 = DepthModel(cfg).forward_batch(seq)
        out2 = DepthModel(ModelConfig(**{**cfg.__dict__})).forward_batch(seq)
        np.testing.assert_array_equal(out1, out2)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, model, cfg, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, extra={"steps_done": 7})
        loaded, extra = load_checkpoint(path)
        assert extra == {"steps_done": 7}
        for (na, ta), (nb, tb) in zip(model.head_parameters(),
                                      loaded.head_parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)
        np.testing.assert_array_equal(model.encoder.weight,
                                      loaded.encoder.weight)
        seq = rand_rgb(3, cfg, seed=13)
        np.testing.assert_array_equal(model.forward_batch(seq),
                                      loaded.forward_batch(seq))

    def test_save_load_save_identical_bytes(self, model, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        loaded, _ = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTAMODELxxxx")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_rejected(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestConfigValidation:
    def test_indivisible_resolution_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(height=30, width=32, patch_size=8)

    def test_session_context_capped_by_table(self, model):
        with pytest.raises(ValueError):
            model.new_session(context=model.cfg.context + 1)

    def test_batch_context_capped_by_table(self, model, cfg):
        feats = model.encoder.encode_sequence(rand_rgb(3, cfg, seed=15))
        with pytest.raises(ValueError):
            model.head_forward_batch(feats, context=cfg.context + 1)

    def test_batch_tape_does_not_grow_with_frames(self, model, cfg):
        # one kernel call per motion module, not one per frame
        nodes = []
        for n in (8, 32):
            feats = model.encoder.encode_sequence(rand_rgb(n, cfg, seed=16))
            with Tape() as tape:
                model.head_forward_batch(feats)
            nodes.append(len(tape))
        assert nodes[0] == nodes[1] > 0

    def test_smaller_session_context_allowed(self, model, cfg):
        seq = rand_rgb(6, cfg, seed=14)
        session = model.new_session(context=2)
        out = np.stack([session.step_rgb(f) for f in seq])
        batch = model.head_forward_batch(
            model.encoder.encode_sequence(seq), context=2).data
        assert np.max(np.abs(out - batch)) < 1e-5

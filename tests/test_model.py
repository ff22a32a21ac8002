import hashlib
import json
import struct
import threading

import numpy as np
import pytest

from depthstream import tensor as T
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
        with pytest.raises(ValueError):
            model.encoder.encode_sequence(np.zeros((2, 8, 8, 3)))
        with pytest.raises(ValueError):
            model.encoder.encode_sequence(np.zeros((16, 16, 3)))

    @pytest.mark.parametrize("size,patch", [(32, 8), (16, 4), (64, 8)])
    def test_clip_and_frame_paths_are_bit_identical(self, size, patch):
        # the whole-clip product must equal one product per frame, bit
        # for bit: streaming encodes frame by frame, the batch pass by clip
        cfg = ModelConfig(height=size, width=size, patch_size=patch)
        enc = DepthModel(cfg).encoder
        clip = rand_rgb(64, cfg, seed=3)
        p, g = patch, size // patch
        per_frame = np.stack([
            f.reshape(g, p, g, p, 3).transpose(0, 2, 1, 3, 4).reshape(
                g * g, -1) @ enc.weight + enc.bias for f in clip])
        np.testing.assert_array_equal(enc.encode_sequence(clip), per_frame)
        np.testing.assert_array_equal(
            np.stack([enc.encode_frame(f) for f in clip]), per_frame)


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

    @pytest.mark.parametrize("shape", [(3, 15, 8), (3, 16, 7), (0, 16, 8),
                                       (16, 8), (1, 3, 16, 8)])
    def test_malformed_features_refused_before_any_op(self, model, shape):
        with Tape() as tape:
            with pytest.raises(ValueError,
                               match=r"features \[N >= 1, 16, 8\]"):
                model.head_forward_batch(np.zeros(shape, dtype=np.float32))
        assert len(tape) == 0

    def test_batch_pass_turns_frame_major_once(self, model, cfg,
                                               monkeypatch):
        # token-major from the input projection on: besides each fold's
        # (1, 0) and each kernel's key product, one transpose, at the
        # readout
        transpose, axes = T.transpose, []

        def record(x, ax):
            axes.append(tuple(ax))
            return transpose(x, ax)

        monkeypatch.setattr(T, "transpose", record)
        feats = model.encoder.encode_sequence(rand_rgb(5, cfg, seed=6))
        model.head_forward_batch(feats)
        assert axes == [(1, 0), (0, 2, 1)] * 2 + [(1, 0, 2)]


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
    def test_reset_on_fresh_session_noop(self, model):
        # a new session is how a stream restarts: no frame, empty banks
        session = model.new_session()
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

    @pytest.mark.parametrize("modulus", [1, 2])
    @pytest.mark.parametrize("precision", ["fp32", "fp16"])
    def test_stream_products_read_no_reversed_operand(
            self, model, cfg, monkeypatch, modulus, precision):
        # the cache hands the kernel its window newest first, so neither
        # of the stream's products reads a view with a negative stride
        real, strides, frames = T.bmm, [], 3 * cfg.context

        def logged(a, b):
            strides.extend(getattr(x, "data", x).strides for x in (a, b))
            return real(a, b)

        monkeypatch.setattr(T, "bmm", logged)
        session = model.new_session(cache_modulus=modulus,
                                    precision=precision)
        for f in rand_rgb(frames, cfg, seed=12):
            session.step_rgb(f)
        # two products of two operands per module and frame
        assert len(strides) == 4 * cfg.num_motion_modules * frames
        assert min(min(s) for s in strides) >= 0, strides

    def test_fp16_footprint_half(self, model, cfg):
        seq = rand_rgb(cfg.context, cfg, seed=11)
        s32 = model.new_session()
        s16 = model.new_session(precision="fp16")
        for f in seq:
            s32.step_rgb(f)
            s16.step_rgb(f)
        assert s16.memory_footprint() * 2 == s32.memory_footprint()

    def test_unknown_precision_rejected(self, model):
        with pytest.raises(ValueError):
            model.new_session(precision="fp8")

    def test_multi_frame_step_rejected(self, model, cfg):
        session = model.new_session()
        with pytest.raises(SessionMisuse):
            session.head_forward_stream(np.zeros((2, cfg.tokens,
                                                  cfg.encoder_channels)))

    @pytest.mark.parametrize("modulus", [1, 2])
    def test_rejected_frame_leaves_session_intact(self, model, cfg, modulus):
        feats = model.encoder.encode_sequence(rand_rgb(10, cfg, seed=13))
        nan_rgb = rand_rgb(1, cfg, seed=14)[0]
        nan_rgb[0, 0, 0] = np.nan
        bad = [feats[0][:cfg.tokens // 2], feats[:2],
               np.where(np.arange(cfg.encoder_channels) == 3, np.inf,
                        feats[0]).astype(np.float32)]
        clean = model.new_session(cache_modulus=modulus)
        want = np.stack([clean.head_forward_stream(f) for f in feats])
        session = model.new_session(cache_modulus=modulus)
        got = []
        for i, f in enumerate(feats):
            if i == 3:
                for b in bad:
                    with pytest.raises(SessionMisuse):
                        session.head_forward_stream(b)
                with pytest.raises(SessionMisuse):
                    session.step_rgb(nan_rgb)
            got.append(session.head_forward_stream(f))
        np.testing.assert_array_equal(np.stack(got), want)

    def test_determinism_across_models(self, cfg):
        seq = rand_rgb(4, cfg, seed=12)
        out1 = DepthModel(cfg).forward_batch(seq)
        out2 = DepthModel(ModelConfig(**{**cfg.__dict__})).forward_batch(seq)
        np.testing.assert_array_equal(out1, out2)


class TestNonFiniteState:
    """A NaN or Inf never enters a cache bank: push_evict refuses it. A
    raise anywhere in a stream step leaves every bank and t as they were,
    so the session streams on. A case that injects an overflow or Inf on
    purpose ignores numpy's RuntimeWarning on the way to the refusal."""

    @staticmethod
    def assert_banks_finite(session):
        for bank in session.banks:
            assert np.isfinite(bank.window()).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fp16_overflow_leaves_every_bank_empty(self, model, cfg):
        # |h| > 65504 is finite in fp32 but inf once cast to fp16
        model.motions[0].ln_gain.data = model.motions[0].ln_gain.data * 1e5
        frame = model.encoder.encode_frame(rand_rgb(1, cfg, seed=20)[0])
        s16 = model.new_session(precision="fp16")
        with pytest.raises(T.NonFiniteError):
            s16.head_forward_stream(frame)
        assert [len(b) for b in s16.banks] == [0, 0] and s16.t == 0
        s32 = model.new_session(precision="fp32")
        assert np.isfinite(s32.head_forward_stream(frame)).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("modulus", [1, 2])
    def test_overflowing_frame_leaves_the_session_intact(self, model, cfg,
                                                         modulus):
        feats = model.encoder.encode_sequence(rand_rgb(10, cfg, seed=21))
        huge = np.full_like(feats[0], 3e38)  # finite, but w_in overflows
        clean = model.new_session(cache_modulus=modulus)
        want = np.stack([clean.head_forward_stream(f) for f in feats])
        session = model.new_session(cache_modulus=modulus)
        got = []
        for i, f in enumerate(feats):
            if i == 3:
                before = [b.window() for b in session.banks]
                with pytest.raises(T.NonFiniteError):
                    session.head_forward_stream(huge)
                assert session.t == 3
                for b, w in zip(session.banks, before):
                    np.testing.assert_array_equal(b.window(), w)
            got.append(session.head_forward_stream(f))
        np.testing.assert_array_equal(np.stack(got), want)

    @pytest.mark.parametrize("modulus", [1, 2])
    @pytest.mark.parametrize("at", [3, 8])
    def test_raise_at_module_1_rolls_back_every_bank(self, model, cfg,
                                                     monkeypatch, modulus,
                                                     at):
        # at frame 3 no bank has evicted yet; at frame 8 bank 0's push
        # evicts its oldest frame, which the rollback must put back
        feats = model.encoder.encode_sequence(rand_rgb(12, cfg, seed=23))
        clean = model.new_session(cache_modulus=modulus)
        want = np.stack([clean.head_forward_stream(f) for f in feats])
        session = model.new_session(cache_modulus=modulus)

        def fault(frame_index, latent):
            raise T.NonFiniteError("injected at module 1")

        got = []
        for i, f in enumerate(feats):
            if i == at:
                before = [b.window() for b in session.banks]
                with monkeypatch.context() as m:
                    m.setattr(session.banks[1], "push_evict", fault)
                    with pytest.raises(T.NonFiniteError):
                        session.head_forward_stream(f)
                assert session.t == at
                for b, w in zip(session.banks, before):
                    np.testing.assert_array_equal(b.window(), w)
            got.append(session.head_forward_stream(f))
        np.testing.assert_array_equal(np.stack(got), want)

    @pytest.mark.parametrize("fault", [
        pytest.param(fault, marks=pytest.mark.filterwarnings(
            "ignore::RuntimeWarning"))
        for fault in ("fp16_overflow", "huge_frame", "inf_block1_b1")]
        + ["inf_w_out"])
    def test_no_bank_holds_a_non_finite_value_after_a_raise(self, model, cfg,
                                                            fault):
        precision = "fp32"
        if fault == "fp16_overflow":
            model.motions[1].ln_gain.data = \
                model.motions[1].ln_gain.data * 1e5
            precision = "fp16"
        elif fault == "inf_block1_b1":
            model.blocks[1].b1.data[0] = np.inf
        elif fault == "inf_w_out":
            model.w_out.data[0, 0] = np.inf
        feats = model.encoder.encode_sequence(rand_rgb(3, cfg, seed=22))
        if fault == "huge_frame":
            feats[1] = 3e38
        session = model.new_session(precision=precision)
        with pytest.raises(T.NonFiniteError):
            for f in feats:
                session.head_forward_stream(f)
                self.assert_banks_finite(session)
        self.assert_banks_finite(session)


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

    # sha256 of each tiny checkpoint below; any change to the byte format
    # or to parameter order or initialisation changes it. The second has a
    # third motion module, so the slot order repeats past two.
    @pytest.mark.parametrize("channels, modules, context, golden_sha256", [
        (4, 2, 3, "586ae280f01c1fd622227dcb93287c3d"
                  "cdc2402a1ada8acafce21c5893e17ef7"),
        (12, 3, 5, "8c1f2f977fc81f8b17451804189adb7a"
                   "8596e25295d918acf12b3ad590388cfc"),
    ], ids=["2-modules", "3-modules"])
    def test_golden_bytes_and_round_trip(self, tmp_path, channels, modules,
                                         context, golden_sha256):
        tiny = ModelConfig(height=8, width=8, patch_size=4, encoder_channels=4,
                           head_channels=channels, num_motion_modules=modules,
                           context=context, seed=5)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(DepthModel(tiny), p1, extra={"steps_done": 7})
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == golden_sha256
        loaded, extra = load_checkpoint(p1)
        save_checkpoint(loaded, p2, extra=extra)
        assert p2.read_bytes() == p1.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTAMODELxxxx")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_previous_format_names_both_magics(self, model, tmp_path):
        # DSTM0001 stored a key bias per motion module; it is refused, not
        # read as misaligned arrays
        path = tmp_path / "old.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(b"DSTM0001" + path.read_bytes()[8:])
        with pytest.raises(ValueError,
                           match="magic b'DSTM0001', not b'DSTM0002'"):
            load_checkpoint(path)

    def test_zero_patch_size_rejected(self, model, tmp_path):
        # a ValueError, not the ZeroDivisionError of the divisibility check
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        (n,) = struct.unpack("<I", raw[8:12])
        config = json.loads(raw[12:12 + n])
        config["patch_size"] = 0
        blob = json.dumps(config).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                         + raw[12 + n:])
        with pytest.raises(ValueError, match="patch_size must be >= 1"):
            load_checkpoint(path)

    def test_truncated_rejected(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_last_byte_missing_rejected(self, model, tmp_path):
        # the cut falls in the encoder bias, the last array stored
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_arrays_must_match_the_layout(self, model, cfg):
        arrays = [t.data for _, t in model.head_parameters()] + [
            model.encoder.weight, model.encoder.bias]
        rebuilt = DepthModel(cfg, arrays)
        seq = rand_rgb(2, cfg, seed=20)
        np.testing.assert_array_equal(rebuilt.forward_batch(seq),
                                      model.forward_batch(seq))
        swapped = arrays[:]
        swapped[0], swapped[1] = swapped[1], swapped[0]
        for bad in (arrays[:-1], arrays + [arrays[-1]], swapped):
            with pytest.raises(ValueError, match="layout"):
                DepthModel(cfg, bad)


class TestConfigValidation:
    def test_indivisible_resolution_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(height=30, width=32, patch_size=8)

    def test_unknown_precision_rejected_at_config(self):
        with pytest.raises(ValueError, match="precision"):
            ModelConfig(precision="fp8")

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("field", [
        "height", "width", "patch_size", "encoder_channels", "head_channels",
        "num_motion_modules", "context", "cache_modulus"])
    def test_int_field_below_one_rejected(self, field, value):
        # refused before the divisibility check, which would divide by a
        # zero patch size
        with pytest.raises(ValueError, match=f"^{field} must be >= 1$"):
            ModelConfig(**{field: value})

    def test_seed_may_be_below_one(self):
        assert ModelConfig(seed=-1).seed == -1

    @pytest.mark.parametrize("context", [0, -2])
    def test_batch_context_below_one_rejected(self, model, cfg, context):
        feats = model.encoder.encode_sequence(rand_rgb(3, cfg, seed=15))
        with pytest.raises(ValueError, match="band"):
            model.head_forward_batch(feats, context=context)

    def test_session_context_capped_by_table(self, model):
        with pytest.raises(ValueError):
            model.new_session(context=model.cfg.context + 1)

    def test_batch_context_capped_by_table(self, model, cfg):
        feats = model.encoder.encode_sequence(rand_rgb(3, cfg, seed=15))
        with pytest.raises(ValueError, match="band"):
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

    def test_session_keeps_the_weights_it_was_built_with(self, model, cfg):
        seq = rand_rgb(6, cfg, seed=17)
        old, replay = model.new_session(), model.new_session()
        before = np.stack([old.step_rgb(f) for f in seq])
        for _, p in model.head_parameters():
            p.data = (p.data * 1.1 + 0.01).astype(p.data.dtype)
        model.motions[0].wq.data *= 1.5  # in place, too
        np.testing.assert_array_equal(
            np.stack([replay.step_rgb(f) for f in seq]), before)
        new = model.new_session()
        after = np.stack([new.step_rgb(f) for f in seq])
        assert np.max(np.abs(after - model.forward_batch(seq))) < 1e-5
        assert np.max(np.abs(after - before)) > 1e-3

    def test_no_tape_records_nothing(self, model, cfg, monkeypatch):
        def refuse(*_):
            raise AssertionError("an op recorded with no tape active")

        monkeypatch.setattr(Tape, "record", refuse)
        seq = rand_rgb(3, cfg, seed=18)
        out = model.head_forward_batch(model.encoder.encode_sequence(seq))
        model.new_session().step_rgb(seq[0])
        assert not out.requires_grad

    def test_taped_batch_reaches_every_parameter(self, model, cfg):
        feats = model.encoder.encode_sequence(rand_rgb(6, cfg, seed=19))
        with Tape() as tape:
            out = model.head_forward_batch(feats)
            tape.backward(T.mean_(T.mul(out, out)))
        for name, p in model.head_parameters():
            assert p.grad is not None and np.any(p.grad != 0), name

    def test_float64_features_give_the_float32_outputs(self, model, cfg):
        feats = model.encoder.encode_sequence(rand_rgb(5, cfg, seed=20))
        wide = feats.astype(np.float64)
        batch = model.head_forward_batch(feats).data
        wide_batch = model.head_forward_batch(wide).data
        assert batch.dtype == wide_batch.dtype == np.float32
        np.testing.assert_array_equal(wide_batch, batch)
        session, wide_session = model.new_session(), model.new_session()
        for f, w in zip(feats, wide):
            out, wide_out = (session.head_forward_stream(f),
                             wide_session.head_forward_stream(w))
            assert out.dtype == wide_out.dtype == np.float32
            np.testing.assert_array_equal(wide_out, out)

    def test_a_tape_in_one_thread_leaves_another_alone(self, model, cfg):
        # thread B's ops must not land on thread A's open tape, and B can
        # open a tape of its own while A's is open
        feats = model.encoder.encode_sequence(rand_rgb(4, cfg, seed=21))
        opened, finished = threading.Event(), threading.Event()
        seen = {}

        def hold_a_tape():
            with Tape() as tape:
                opened.set()
                finished.wait(60)
                seen["a"] = len(tape)

        def run_the_head():
            try:
                opened.wait(60)
                model.head_forward_batch(feats)
                with Tape() as tape:
                    model.head_forward_batch(feats)
                seen["b"] = len(tape)
            except Exception as e:  # reported below, in the main thread
                seen["b"] = e
            finally:
                finished.set()

        threads = [threading.Thread(target=hold_a_tape),
                   threading.Thread(target=run_the_head)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert seen["a"] == 0
        assert isinstance(seen["b"], int) and seen["b"] > 0, seen["b"]

    def test_smaller_session_context_allowed(self, model, cfg):
        seq = rand_rgb(6, cfg, seed=14)
        session = model.new_session(context=2)
        out = np.stack([session.step_rgb(f) for f in seq])
        batch = model.head_forward_batch(
            model.encoder.encode_sequence(seq), context=2).data
        assert np.max(np.abs(out - batch)) < 1e-5

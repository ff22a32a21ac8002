import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthstream.data import (MAX_DEPTH, PfmError, PpmError, Primitive,
                              SceneSpec, generate_sequence, load_sequence,
                              read_manifest, read_pfm, read_ppm,
                              save_sequence, write_manifest, write_pfm,
                              write_ppm)


class TestPfmBytes:
    def test_golden_header_and_payload(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 4)
        path = tmp_path / "m.pfm"
        write_pfm(path, data)
        raw = path.read_bytes()
        header = b"Pf\n4 2\n-1.0\n"
        assert raw[:len(header)] == header
        # rows are stored bottom-up: row 1 first, then row 0
        expected = np.concatenate([data[1], data[0]]).astype("<f4").tobytes()
        assert raw[len(header):] == expected

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 7)).astype(np.float32)
        path = tmp_path / "m.pfm"
        write_pfm(path, data)
        np.testing.assert_array_equal(read_pfm(path), data)

    def test_big_endian_scale_read(self, tmp_path):
        data = np.array([[1.5, -2.0], [3.25, 0.0]], dtype=np.float32)
        path = tmp_path / "be.pfm"
        payload = np.ascontiguousarray(data[::-1]).astype(">f4").tobytes()
        path.write_bytes(b"Pf\n2 2\n1.0\n" + payload)
        np.testing.assert_array_equal(read_pfm(path), data)

    def test_color_header_rejected(self, tmp_path):
        path = tmp_path / "c.pfm"
        path.write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
        with pytest.raises(PfmError):
            read_pfm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.pfm"
        path.write_bytes(b"Pf\n4 4\n-1.0\n" + b"\x00" * 10)
        with pytest.raises(PfmError):
            read_pfm(path)

    def test_zero_scale_rejected(self, tmp_path):
        path = tmp_path / "z.pfm"
        path.write_bytes(b"Pf\n1 1\n0.0\n" + b"\x00" * 4)
        with pytest.raises(PfmError):
            read_pfm(path)

    @pytest.mark.parametrize("header", [
        b"Pf\n1 1\nabc\n", b"Pf\n1 1\nnan\n", b"Pf\nx 1\n-1.0\n",
        b"Pf\n-1 -1\n-1.0\n", b"Pf\n1 1 1\n-1.0\n", b"Pf\n1 \xb9\n-1.0\n"])
    def test_malformed_header_is_a_pfm_error(self, tmp_path, header):
        # not a plain ValueError from int() or float()
        path = tmp_path / "h.pfm"
        path.write_bytes(header + b"\x00" * 4)
        with pytest.raises(PfmError):
            read_pfm(path)

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pfm(tmp_path / "x.pfm", np.zeros((2, 2, 3), np.float32))

    @settings(max_examples=25, deadline=None)
    @given(h=st.integers(1, 6), w=st.integers(1, 6),
           seed=st.integers(0, 1000))
    def test_roundtrip_property(self, h, w, seed):
        import tempfile
        data = (np.random.default_rng(seed)
                .normal(size=(h, w)).astype(np.float32))
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/p.pfm"
            write_pfm(path, data)
            np.testing.assert_array_equal(read_pfm(path), data)


class TestPpmBytes:
    def test_golden_white_pixel(self, tmp_path):
        path = tmp_path / "w.ppm"
        write_ppm(path, np.full((1, 1, 3), 255, dtype=np.uint8))
        assert path.read_bytes() == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_float_input_quantized(self, tmp_path):
        path = tmp_path / "f.ppm"
        write_ppm(path, np.full((1, 1, 3), 0.5, dtype=np.float32))
        assert read_ppm(path)[0, 0, 0] == round(0.5 * 255)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (3, 5, 3), dtype=np.uint8)
        path = tmp_path / "r.ppm"
        write_ppm(path, img)
        np.testing.assert_array_equal(read_ppm(path), img)

    def test_ascii_variant_rejected(self, tmp_path):
        path = tmp_path / "a.ppm"
        path.write_bytes(b"P3\n1 1\n255\n255 255 255\n")
        with pytest.raises(PpmError):
            read_ppm(path)

    def test_wide_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
        with pytest.raises(PpmError):
            read_ppm(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(PpmError):
            read_ppm(path)

    @pytest.mark.parametrize("header", [b"", b"P6", b"P6\n2", b"P6\n2 2\n25"])
    def test_cut_header_is_a_ppm_error(self, tmp_path, header):
        path = tmp_path / "h.ppm"
        path.write_bytes(header)
        with pytest.raises(PpmError):
            read_ppm(path)

    @pytest.mark.parametrize("header", [
        b"P6\nx y\n255\n", b"P6\n2 2.0\n255\n", b"P6\n-2 -2\n255\n",
        b"P6\n2 \xb2\n255\n"])
    def test_malformed_header_is_a_ppm_error(self, tmp_path, header):
        # not a plain ValueError from int() or a decode
        path = tmp_path / "h.ppm"
        path.write_bytes(header + b"\x00" * 12)
        with pytest.raises(PpmError):
            read_ppm(path)


class TestGenerator:
    def test_reproducible(self):
        spec = SceneSpec(seed=7, invalid_fraction=0.1)
        a = generate_sequence(spec, 4, (8, 10))
        b = generate_sequence(SceneSpec(seed=7, invalid_fraction=0.1),
                              4, (8, 10))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_shapes_and_ranges(self):
        rgb, depth, valid = generate_sequence(SceneSpec(seed=0), 3, (6, 9))
        assert rgb.shape == (3, 6, 9, 3)
        assert depth.shape == valid.shape == (3, 6, 9)
        assert rgb.min() >= 0.0 and rgb.max() <= 1.0
        assert depth.min() > 0.0 and depth.max() <= MAX_DEPTH

    def test_static_scene_frames_identical(self):
        spec = SceneSpec(seed=2, forward_velocity=0.0)
        rgb, depth, _ = generate_sequence(spec, 4, (8, 8))
        for t in range(1, 4):
            np.testing.assert_array_equal(depth[t], depth[0])
            np.testing.assert_array_equal(rgb[t], rgb[0])

    def test_plane_depth_decreases_linearly(self):
        v = 0.25
        spec = SceneSpec(seed=3, forward_velocity=v,
                         primitives=[Primitive("plane", depth=12.0)])
        _, depth, _ = generate_sequence(spec, 5, (4, 4))
        for t in range(5):
            np.testing.assert_allclose(depth[t], 12.0 - v * t, atol=1e-6)

    def test_sphere_occludes_background(self):
        spec = SceneSpec(seed=4, forward_velocity=0.0, primitives=[
            Primitive("plane", depth=30.0),
            Primitive("sphere", center=(0.0, 0.0, 5.0), radius=1.0)])
        _, depth, _ = generate_sequence(spec, 1, (16, 16))
        h, w = 16, 16
        assert depth[0, h // 2, w // 2] < 30.0   # sphere front face
        assert depth[0, 0, 0] == 30.0            # background corner

    def test_box_renders_closer_than_plane(self):
        spec = SceneSpec(seed=5, forward_velocity=0.0, primitives=[
            Primitive("plane", depth=30.0),
            Primitive("box", center=(0.0, 0.0, 6.0), size=(0.5, 0.5, 0.5))])
        _, depth, _ = generate_sequence(spec, 1, (16, 16))
        assert depth[0, 8, 8] == pytest.approx(5.5, abs=1e-6)

    def test_invalid_fraction_applied(self):
        spec = SceneSpec(seed=6, invalid_fraction=0.1)
        _, _, valid = generate_sequence(spec, 6, (32, 32))
        frac = 1.0 - valid.mean()
        assert abs(frac - 0.1) < 0.02

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5, float("nan")])
    def test_invalid_fraction_outside_unit_interval_rejected(self, fraction):
        spec = SceneSpec(seed=6, invalid_fraction=fraction)
        with pytest.raises(ValueError, match="outside"):
            spec.validate(4)

    def test_camera_through_plane_rejected(self):
        spec = SceneSpec(seed=8, forward_velocity=2.0,
                         primitives=[Primitive("plane", depth=4.0)])
        with pytest.raises(ValueError):
            generate_sequence(spec, 10, (4, 4))

    @pytest.mark.parametrize("velocity", [np.nan, np.inf])
    def test_non_finite_velocity_rejected(self, velocity):
        spec = SceneSpec(seed=0, forward_velocity=velocity,
                         primitives=[Primitive("sphere")])
        with pytest.raises(ValueError, match="non-finite velocity"):
            spec.validate(1)

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            generate_sequence(SceneSpec(seed=0), 0, (4, 4))

    @pytest.mark.parametrize("resolution", [(0, 4), (4, 0), (-1, 4)])
    def test_side_below_one_rejected(self, resolution):
        with pytest.raises(ValueError, match="sides >= 1"):
            generate_sequence(SceneSpec(seed=0), 2, resolution)

    def test_uncovered_frame_rejected(self):
        spec = SceneSpec(seed=9, primitives=[
            Primitive("sphere", center=(0.0, 0.0, 5.0), radius=0.5)])
        with pytest.raises(ValueError):
            generate_sequence(spec, 1, (8, 8))


class TestManifestAndSequenceIo:
    @pytest.fixture
    def saved(self, tmp_path):
        spec = SceneSpec(seed=11, forward_velocity=0.1,
                         invalid_fraction=0.05)
        rgb, depth, valid = generate_sequence(spec, 8, (8, 8))
        mpath = save_sequence(tmp_path, "seq", rgb, depth, valid)
        return mpath, rgb, depth, valid

    def test_manifest_roundtrip(self, saved, tmp_path):
        mpath, *_ = saved
        manifest = read_manifest(mpath)
        assert manifest.sequence_id == "seq"
        assert manifest.frames == 8
        assert (manifest.height, manifest.width) == (8, 8)
        copy = tmp_path / "copy.manifest"
        write_manifest(copy, manifest)
        assert read_manifest(copy) == manifest

    @pytest.mark.parametrize("key", ["id", "frames", "height", "width"])
    def test_missing_header_key_is_a_value_error(self, saved, key):
        mpath, *_ = saved
        lines = mpath.read_text().splitlines(keepends=True)
        mpath.write_text("".join(
            line for line in lines if not line.startswith(f"{key}=")))
        with pytest.raises(ValueError, match=f"'{key}'"):
            read_manifest(mpath)

    def test_unknown_header_keys_ignored(self, saved):
        # manifests written with seed= and stride= lines still load
        mpath, _, depth, _ = saved
        before = read_manifest(mpath)
        mpath.write_text(mpath.read_text().replace(
            "width=8\n", "width=8\nseed=11\nstride=1\n"))
        assert "seed=11\nstride=1\n" in mpath.read_text()
        assert read_manifest(mpath) == before
        np.testing.assert_array_equal(load_sequence(mpath)[1], depth)

    def test_depth_and_valid_roundtrip_exact(self, saved):
        mpath, rgb, depth, valid = saved
        rgb2, depth2, valid2 = load_sequence(mpath)
        np.testing.assert_array_equal(depth2, depth)
        np.testing.assert_array_equal(valid2, valid)
        # rgb goes through 8-bit quantization: bounded error only
        assert np.max(np.abs(rgb2 - rgb)) <= 0.5 / 255.0 + 1e-6

    def test_stride_selects_every_kth_frame(self, saved):
        mpath, _, depth, _ = saved
        _, d2, _ = load_sequence(mpath, stride=2)
        np.testing.assert_array_equal(d2, depth[::2])
        _, d3, _ = load_sequence(mpath, stride=3)
        np.testing.assert_array_equal(d3, depth[::3])

    def test_stride_doubles_depth_step(self, saved):
        # constant camera speed: stride 2 doubles the per-step depth change
        mpath, *_ = saved
        _, d1, _ = load_sequence(mpath, stride=1)
        _, d2, _ = load_sequence(mpath, stride=2)
        step1 = d1[0] - d1[1]
        step2 = d2[0] - d2[1]
        np.testing.assert_allclose(step2, 2 * step1, atol=1e-5)

    def test_manifest_size_checked_against_frames(self, saved):
        mpath, *_ = saved
        mpath.write_text(mpath.read_text().replace(
            "height=8", "height=64").replace("width=8", "width=5"))
        with pytest.raises(ValueError, match=r"is 8x8, but manifest .*"
                           r"seq\.manifest says 64x5"):
            load_sequence(mpath)

    @pytest.mark.parametrize("kind", ["rgb", "depth", "valid"])
    def test_map_of_another_size_rejected(self, saved, kind):
        mpath, rgb, depth, valid = saved
        slot = ("rgb", "depth", "valid").index(kind)
        name = read_manifest(mpath).entries[5][slot]
        if kind == "rgb":
            write_ppm(mpath.parent / name, rgb[5][:, :-1])
        else:
            full = depth[5] if kind == "depth" else valid[5].astype(np.float32)
            write_pfm(mpath.parent / name, full[:, :-1])
        with pytest.raises(ValueError, match=f"{name} is 8x7, but manifest "
                           r".*seq\.manifest says 8x8"):
            load_sequence(mpath)

    def test_bad_stride_rejected(self, saved):
        with pytest.raises(ValueError):
            load_sequence(saved[0], stride=5)

    def test_mismatched_entry_count_rejected(self):
        from depthstream.data import SequenceManifest
        with pytest.raises(ValueError):
            SequenceManifest("x", 2, 4, 4, entries=[("a", "b", "c")])

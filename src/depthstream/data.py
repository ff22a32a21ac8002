"""Synthetic depth-video generation and bit-exact file I/O.

Scenes are built from analytic primitives (frontal planes, spheres,
boxes) rendered by per-pixel z-depth under a pinhole camera moving
forward, so ground truth is exact by construction and stays within
(0, 80]. Maps travel as grayscale PFM, images as binary PPM (P6),
sequences as a line-oriented manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "SceneSpec", "Primitive", "SequenceManifest", "generate_sequence",
    "write_pfm", "read_pfm", "write_ppm", "read_ppm",
    "write_manifest", "read_manifest", "load_sequence", "PfmError",
    "PpmError",
]

MAX_DEPTH = 80.0


class PfmError(ValueError):
    """Malformed or truncated PFM file."""


class PpmError(ValueError):
    """Malformed or unsupported PPM file."""


@dataclass
class Primitive:
    kind: str                      # "plane" | "sphere" | "box"
    depth: float = 10.0            # plane: z position
    center: tuple = (0.0, 0.0, 10.0)
    radius: float = 1.0
    size: tuple = (1.0, 1.0, 1.0)  # box half-extents
    velocity: tuple = (0.0, 0.0, 0.0)  # per-frame motion of the primitive


@dataclass
class SceneSpec:
    seed: int = 0
    forward_velocity: float = 0.1  # camera travel per frame, along +z
    primitives: list = field(default_factory=lambda: [Primitive("plane", depth=20.0)])
    invalid_fraction: float = 0.0

    def validate(self, frames: int):
        if not self.primitives:
            raise ValueError("scene needs at least one primitive")
        if not np.isfinite(self.forward_velocity):
            raise ValueError(f"non-finite velocity {self.forward_velocity}")
        if not 0 <= self.invalid_fraction < 1:
            raise ValueError(f"invalid_fraction {self.invalid_fraction} "
                             "is outside [0, 1)")
        for prim in self.primitives:
            if prim.kind == "plane":
                end = prim.depth - self.forward_velocity * (frames - 1)
                if end <= 0:
                    raise ValueError("camera passes through a plane; "
                                     "reduce velocity or frame count")


def _pixel_rays(h: int, w: int):
    # pinhole with focal length = image size; rays have unit z so ray
    # parameter equals z-depth directly
    f = max(h, w)
    ys = (np.arange(h) - (h - 1) / 2.0) / f
    xs = (np.arange(w) - (w - 1) / 2.0) / f
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    return xx, yy


def _depth_plane(prim, cam_z, t, xx, yy):
    z = prim.depth + prim.velocity[2] * t - cam_z
    return np.full(xx.shape, z), np.ones(xx.shape, dtype=bool)


def _depth_sphere(prim, cam_z, t, xx, yy):
    cx = prim.center[0] + prim.velocity[0] * t
    cy = prim.center[1] + prim.velocity[1] * t
    cz = prim.center[2] + prim.velocity[2] * t - cam_z
    # ray p(s) = s * (x, y, 1); |p - c|^2 = r^2
    a = xx * xx + yy * yy + 1.0
    b = -2.0 * (xx * cx + yy * cy + cz)
    cc = cx * cx + cy * cy + cz * cz - prim.radius ** 2
    disc = b * b - 4 * a * cc
    hit = disc >= 0
    s = np.full(xx.shape, np.inf)
    sq = np.sqrt(np.maximum(disc, 0.0))
    s_near = (-b - sq) / (2 * a)
    s[hit] = s_near[hit]
    hit &= s > 0
    return s, hit


def _depth_box(prim, cam_z, t, xx, yy):
    c = np.array(prim.center, dtype=np.float64)
    c = c + np.array(prim.velocity) * t
    c[2] -= cam_z
    half = np.array(prim.size, dtype=np.float64)
    s_hit = np.full(xx.shape, np.inf)
    hit = np.zeros(xx.shape, dtype=bool)
    dirs = np.stack([xx, yy, np.ones_like(xx)], axis=-1)
    lo, hi = c - half, c + half
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = lo / dirs
        t_hi = hi / dirs
    t_near = np.minimum(t_lo, t_hi).max(axis=-1)
    t_far = np.maximum(t_lo, t_hi).min(axis=-1)
    ok = (t_near <= t_far) & (t_far > 0)
    s_hit[ok] = np.maximum(t_near[ok], 0.0)
    hit[ok] = s_hit[ok] > 0
    return s_hit, hit


_RENDERERS = {"plane": _depth_plane, "sphere": _depth_sphere,
              "box": _depth_box}


def generate_sequence(spec: SceneSpec, frames: int, resolution):
    """Render rgb [N, H, W, 3] in [0, 1], analytic depth [N, H, W], and
    validity masks [N, H, W]. Deterministic given the spec seed."""
    if frames < 1:
        raise ValueError("need at least one frame")
    h, w = resolution
    if h < 1 or w < 1:
        raise ValueError(f"resolution {h}x{w} needs both sides >= 1")
    spec.validate(frames)
    rng = np.random.default_rng(spec.seed)
    xx, yy = _pixel_rays(h, w)
    rgbs, depths, valids = [], [], []
    # fixed per-primitive base colors for texture
    colors = rng.uniform(0.2, 1.0, (len(spec.primitives), 3))
    for t in range(frames):
        cam_z = spec.forward_velocity * t
        depth = np.full((h, w), np.inf)
        color = np.zeros((h, w, 3))
        for pi, prim in enumerate(spec.primitives):
            z, hit = _RENDERERS[prim.kind](prim, cam_z, t, xx, yy)
            closer = hit & (z < depth)
            depth[closer] = z[closer]
            # checker texture in camera-plane coordinates
            u = (xx * z)[closer]
            v = (yy * z)[closer]
            checker = ((np.floor(u * 2) + np.floor(v * 2)) % 2)
            shade = 0.6 + 0.4 * checker
            color[closer] = colors[pi] * shade[:, None]
        hit_any = np.isfinite(depth)
        if not hit_any.all():
            raise ValueError("scene does not cover the full frame; add a "
                             "background plane")
        depth = np.minimum(depth, MAX_DEPTH)
        # distance shading keeps rgb correlated with depth
        rgb = color * (1.0 / (1.0 + 0.02 * depth))[..., None]
        rgb = np.clip(rgb, 0.0, 1.0)
        valid = np.ones((h, w), dtype=bool)
        if spec.invalid_fraction > 0:
            valid &= rng.random((h, w)) >= spec.invalid_fraction
        rgbs.append(rgb.astype(np.float32))
        depths.append(depth.astype(np.float32))
        valids.append(valid)
    return np.stack(rgbs), np.stack(depths), np.stack(valids)


# --- PFM --------------------------------------------------------------

def write_pfm(path, data: np.ndarray):
    """Grayscale PFM: `Pf`, `W H`, scale line (sign = endianness,
    negative = little-endian), raw float32 rows bottom-up."""
    arr = np.asarray(data, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError("write_pfm expects a 2-D map")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"Pf\n{w} {h}\n-1.0\n".encode("ascii"))
        f.write(np.ascontiguousarray(arr[::-1]).tobytes())


def _read_header(f, tag: str, error) -> tuple[int, int, str]:
    """A PFM or PPM header's three lines: the tag, "W H" and a third line,
    returned as (w, h, third). Raises error (PfmError or PpmError) for a
    different tag, a cut, overlong or non-ASCII header line, or a
    dimension line that is not two non-negative integers."""
    raw = [f.readline(256) for _ in range(3)]
    if not all(line.endswith(b"\n") and line.isascii() for line in raw):
        raise error("header cut short, overlong or not ASCII")
    got, dim_line, third = (line[:-1].decode("ascii") for line in raw)
    if got != tag:
        raise error(f"expected {tag!r} header, got {got!r}")
    dims = dim_line.split()
    if len(dims) != 2 or not all(d.isdigit() for d in dims):
        raise error(f"malformed dimension line {dim_line!r}")
    return int(dims[0]), int(dims[1]), third


def read_pfm(path) -> np.ndarray:
    with open(path, "rb") as f:
        w, h, scale_line = _read_header(f, "Pf", PfmError)
        try:
            scale = float(scale_line)
        except ValueError:
            raise PfmError(f"malformed scale line {scale_line!r}") from None
        if scale == 0 or not np.isfinite(scale):
            raise PfmError(f"scale must be finite and non-zero, got {scale}")
        count = w * h
        raw = f.read(4 * count)
        if len(raw) != 4 * count:
            raise PfmError("truncated payload")
        dtype = "<f4" if scale < 0 else ">f4"
        arr = np.frombuffer(raw, dtype=dtype).reshape(h, w)
        return arr[::-1].astype(np.float32)


# --- PPM (binary P6, 8-bit) ------------------------------------------

def write_ppm(path, rgb: np.ndarray):
    """rgb: [H, W, 3] uint8, or floats in [0, 1] which are quantized."""
    arr = np.asarray(rgb)
    if arr.dtype != np.uint8:
        arr = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError("write_ppm expects [H, W, 3]")
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        w, h, maxval = _read_header(f, "P6", PpmError)
        if maxval != "255":
            raise PpmError(f"only 8-bit maxval 255 supported, got {maxval}")
        raw = f.read(3 * w * h)
        if len(raw) != 3 * w * h:
            raise PpmError("truncated payload")
        return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3).copy()


# --- manifests --------------------------------------------------------

@dataclass
class SequenceManifest:
    sequence_id: str
    frames: int
    height: int
    width: int
    entries: list  # (rgb_path, depth_path, valid_path) relative to manifest

    def __post_init__(self):
        if len(self.entries) != self.frames:
            raise ValueError("frame count does not match entry listing")


def write_manifest(path, manifest: SequenceManifest):
    with open(path, "w") as f:
        f.write(f"id={manifest.sequence_id}\n")
        f.write(f"frames={manifest.frames}\n")
        f.write(f"height={manifest.height}\n")
        f.write(f"width={manifest.width}\n")
        for rgb, depth, valid in manifest.entries:
            f.write(f"{rgb} {depth} {valid}\n")


def read_manifest(path) -> SequenceManifest:
    header: dict[str, str] = {}
    entries = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if "=" in line and " " not in line:
                key, val = line.split("=", 1)
                header[key] = val
            else:
                parts = line.split()
                if len(parts) != 3:
                    raise ValueError(f"malformed frame line: {line!r}")
                entries.append(tuple(parts))
    try:
        return SequenceManifest(
            sequence_id=header["id"], frames=int(header["frames"]),
            height=int(header["height"]), width=int(header["width"]),
            entries=entries)
    except KeyError as e:
        raise ValueError(f"manifest {path} lacks header key {e}") from None


def save_sequence(out_dir, sequence_id: str, rgb, depth, valid) -> Path:
    """Write every frame plus a manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(len(rgb)):
        names = (f"{sequence_id}_{i:05d}_rgb.ppm",
                 f"{sequence_id}_{i:05d}_depth.pfm",
                 f"{sequence_id}_{i:05d}_valid.pfm")
        write_ppm(out / names[0], rgb[i])
        write_pfm(out / names[1], depth[i])
        write_pfm(out / names[2], valid[i].astype(np.float32))
        entries.append(names)
    manifest = SequenceManifest(sequence_id, len(rgb), rgb.shape[1],
                                rgb.shape[2], entries)
    mpath = out / f"{sequence_id}.manifest"
    write_manifest(mpath, manifest)
    return mpath


def load_sequence(manifest_path, stride: int = 1):
    """Load every stride-th frame starting at 0.

    Returns (rgb [N, H, W, 3] float32 in [0, 1], depth [N, H, W],
    valid [N, H, W] bool); ValueError for a map that is not the
    manifest's height x width."""
    if stride not in (1, 2, 3, 4):
        raise ValueError("stride must be in {1, 2, 3, 4}")
    manifest = read_manifest(manifest_path)
    base = Path(manifest_path).parent
    size = (manifest.height, manifest.width)
    maps = []
    for entry in manifest.entries[::stride]:
        for read, name in zip((read_ppm, read_pfm, read_pfm), entry):
            maps.append(read(base / name))
            if maps[-1].shape[:2] != size:
                raise ValueError(
                    f"{name} is {maps[-1].shape[0]}x{maps[-1].shape[1]}, but "
                    f"manifest {manifest_path} says {size[0]}x{size[1]}")
    rgb, depth, valid = (np.stack(maps[i::3]) for i in range(3))
    return rgb.astype(np.float32) / 255.0, depth, valid > 0.5

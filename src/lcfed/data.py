"""Synthetic heterogeneous multi-site data and a plain-file dataset loader.

Each site gets a deterministic rendering style (intensity, contrast, noise,
blur, texture, shape family, size prior), so the sites genuinely disagree in
appearance while sharing the same task: segment one smooth foreground shape
per grayscale image.  Generated images are quantized to the 16-bit grid, so
writing them to disk and reloading reproduces the arrays exactly.

File format: portable graymaps (PGM, P5), 16-bit for images, 8-bit for masks,
plus a whitespace-separated manifest with one record per sample:
``site split image-path mask-path`` (paths relative to the manifest).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
# numpy 2 loads numpy.random on first use; load it with the other imports
import numpy.random  # noqa: F401

SHAPE_FAMILIES = ("ellipse", "blob", "polygon")


@dataclass(frozen=True)
class SiteStyle:
    intensity_offset: float  # in [-0.3, 0.3]
    contrast_gain: float     # in [0.6, 1.6]
    noise_std: float         # in [0, 0.15]
    blur_radius: int         # 0, 1 or 2
    texture_freq: float
    shape_family: str
    size_range: tuple        # foreground area fraction (lo, hi)

    def validate(self):
        if not -0.3 <= self.intensity_offset <= 0.3:
            raise ValueError(f"intensity offset {self.intensity_offset} out of range")
        if not 0.6 <= self.contrast_gain <= 1.6:
            raise ValueError(f"contrast gain {self.contrast_gain} out of range")
        if not 0 <= self.noise_std <= 0.15:
            raise ValueError(f"noise std {self.noise_std} out of range")
        if self.blur_radius not in (0, 1, 2):
            raise ValueError(f"blur radius {self.blur_radius} not in 0..2")
        if self.shape_family not in SHAPE_FAMILIES:
            raise ValueError(f"unknown shape family {self.shape_family!r}")
        lo, hi = self.size_range
        if not 0 < lo < hi < 1:
            raise ValueError(f"bad size range {self.size_range}")


@dataclass
class Sample:
    image: np.ndarray  # (H, W) in [0, 1]
    mask: np.ndarray   # (N, H, W) binary
    site: int
    split: str


@dataclass
class SiteData:
    """Per-site arrays ready for batching."""

    train_images: np.ndarray  # (n, 1, H, W)
    train_masks: np.ndarray   # (n, N, H, W)
    test_images: np.ndarray
    test_masks: np.ndarray


def default_styles(benchmark_seed: int, n_sites: int) -> list:
    """Deterministic style per site, stratified so sites genuinely differ."""
    styles = []
    for k in range(n_sites):
        rng = np.random.default_rng([int(benchmark_seed), k, 0xD1CE])
        spread = k / max(1, n_sites - 1)
        lo = float(rng.uniform(0.08, 0.16))
        styles.append(SiteStyle(
            intensity_offset=round(-0.3 + 0.6 * spread, 6),
            contrast_gain=round(1.5 - 0.8 * spread, 6),
            noise_std=round(float(rng.uniform(0.01, 0.1)), 6),
            blur_radius=k % 3,
            texture_freq=round(float(rng.uniform(2.0, 8.0)), 6),
            shape_family=SHAPE_FAMILIES[k % len(SHAPE_FAMILIES)],
            size_range=(round(lo, 6), round(lo + float(rng.uniform(0.1, 0.18)), 6)),
        ))
    return styles


# ---------------------------------------------------------------------------
# shape rendering
# ---------------------------------------------------------------------------

def _grid(size: int):
    ys, xs = np.mgrid[0:size, 0:size]
    return ys.astype(np.float64), xs.astype(np.float64)


def _render_star_shape(size: int, cy: float, cx: float, radius_of_angle) -> np.ndarray:
    """Fill the star-shaped region {r <= radius(phi)} around (cy, cx)."""
    ys, xs = _grid(size)
    dy, dx = ys - cy, xs - cx
    r = np.hypot(dy, dx)
    phi = np.arctan2(dy, dx)
    return r <= radius_of_angle(phi)


def _ellipse_mask(size, cy, cx, r_eq, rng):
    q = rng.uniform(0.55, 0.95)
    theta = rng.uniform(0, np.pi)
    a, b = r_eq / np.sqrt(q), r_eq * np.sqrt(q)

    def radius(phi):
        c, s = np.cos(phi - theta), np.sin(phi - theta)
        return a * b / np.sqrt((b * c) ** 2 + (a * s) ** 2)

    return _render_star_shape(size, cy, cx, radius)


def _blob_mask(size, cy, cx, r_eq, rng):
    amps = rng.uniform(0.0, 0.22, size=4)
    phases = rng.uniform(0, 2 * np.pi, size=4)

    def radius(phi):
        r = np.ones_like(phi)
        for h, (a, p) in enumerate(zip(amps, phases), start=2):
            r = r + a * np.cos(h * phi + p)
        return r_eq * np.clip(r, 0.4, None)

    return _render_star_shape(size, cy, cx, radius)


def _polygon_mask(size, cy, cx, r_eq, rng):
    n_vertices = int(rng.integers(5, 9))
    base = rng.uniform(0, 2 * np.pi)
    angles = base + 2 * np.pi * np.arange(n_vertices) / n_vertices
    radii = r_eq * rng.uniform(0.9, 1.25, size=n_vertices)
    vy = cy + radii * np.sin(angles)
    vx = cx + radii * np.cos(angles)

    ys, xs = _grid(size)
    phi = np.mod(np.arctan2(ys - cy, xs - cx) - base, 2 * np.pi)
    sector = np.minimum((phi / (2 * np.pi / n_vertices)).astype(int), n_vertices - 1)
    nxt = (sector + 1) % n_vertices
    # star-shaped fill: a pixel is inside iff it sits on the same side of its
    # angular sector's edge as the center does
    ey, ex = vy[nxt] - vy[sector], vx[nxt] - vx[sector]
    cross_pixel = ex * (ys - vy[sector]) - ey * (xs - vx[sector])
    cross_center = ex * (cy - vy[sector]) - ey * (cx - vx[sector])
    return cross_pixel * cross_center >= 0


_FAMILY_RENDERERS = {"ellipse": _ellipse_mask, "blob": _blob_mask, "polygon": _polygon_mask}


def _box_blur(img: np.ndarray, radius: int) -> np.ndarray:
    """Mean over the (2r+1) x (2r+1) window of the last two axes, edges
    replicated; radius 0 is the identity (the running sum would round it).

    Each axis is `scipy.ndimage.uniform_filter1d` with mode "nearest", bit
    for bit: in double, the first window summed from 0.0 in order, then the
    running sum tmp += x[l + size] - x[l] over the edge-padded line, each
    written out as tmp / size and cast to the input's dtype.  The running sum
    steps along the axis for every line at once.  lcfed does not import
    scipy: `scipy.ndimage` takes each process longer to import than numpy.
    """
    if radius == 0:
        return img
    size = 2 * radius + 1
    for axis in (-2, -1):
        x = np.moveaxis(img, axis, 0)
        n = x.shape[0]
        padded = np.concatenate([x[:1]] * radius + [x] + [x[-1:]] * radius, axis=0,
                                dtype=np.float64)
        sums = np.empty(x.shape)
        sums[0] = 0.0
        for i in range(size):
            sums[0] += padded[i]
        np.subtract(padded[size:], padded[:n - 1], out=sums[1:])
        for i in range(1, n):
            sums[i] += sums[i - 1]
        sums /= size
        img = np.moveaxis(sums.astype(img.dtype, copy=False), 0, axis)
    return np.ascontiguousarray(img)


def generate_site(style: SiteStyle, site: int, n_train: int, n_test: int, seed,
                  image_size: int = 64, classes: int = 1) -> list:
    """n_train then n_test samples of `site` rendered per the style;
    deterministic in (style, n_train + n_test, seed)."""
    if n_train + n_test < 1:
        raise ValueError("need at least one sample")
    style.validate()
    rng = np.random.default_rng(seed)
    render = _FAMILY_RENDERERS[style.shape_family]
    sample_masks, clean, noise = [], [], []
    for idx in range(n_train + n_test):
        cy = image_size * rng.uniform(0.3, 0.7)
        cx = image_size * rng.uniform(0.3, 0.7)
        area = rng.uniform(*style.size_range) * image_size * image_size
        r_eq = np.sqrt(area / np.pi)
        mask = render(image_size, cy, cx, r_eq, rng)
        if not mask.any():
            raise ValueError("degenerate style produced an empty shape")

        masks = [mask]
        if classes == 2:
            # concentric inner structure, contained in the outer shape
            ys, xs = _grid(image_size)
            inner = mask & (np.hypot(ys - cy, xs - cx) <= 0.55 * r_eq)
            masks.append(inner)
        elif classes > 2:
            raise ValueError("generator supports 1 or 2 classes")

        ys, xs = _grid(image_size)
        alpha = rng.uniform(0, np.pi)
        phase = rng.uniform(0, 2 * np.pi)
        wave = np.sin(2 * np.pi * style.texture_freq *
                      (xs * np.cos(alpha) + ys * np.sin(alpha)) / image_size + phase)
        background = 0.38 + 0.1 * wave
        dist = np.hypot(ys - cy, xs - cx) / max(r_eq, 1.0)
        foreground = 0.78 - 0.18 * np.clip(dist, 0, 1) + 0.03 * wave
        canonical = np.where(mask, foreground, background)

        sample_masks.append(np.stack(masks).astype(np.float64))
        clean.append(style.contrast_gain * (canonical - 0.5) + 0.5 + style.intensity_offset)
        noise.append(rng.normal(0.0, style.noise_std, canonical.shape))

    # the blur draws no random numbers, so it runs once over the whole stack
    images = _box_blur(np.stack(clean), style.blur_radius) + np.stack(noise)
    images = np.clip(images, 0.0, 1.0)
    images = np.round(images * 65535.0) / 65535.0  # 16-bit grid; file round trips exactly
    return [Sample(image=img, mask=m, site=site, split="train" if idx < n_train else "test")
            for idx, (img, m) in enumerate(zip(images, sample_masks))]


def site_data_from_samples(samples: list) -> SiteData:
    """Stack one site's samples by split; each split needs at least one."""
    def stack(split):
        group = [s for s in samples if s.split == split]
        return np.stack([s.image for s in group])[:, None, :, :], np.stack([s.mask for s in group])

    (tri, trm), (tei, tem) = stack("train"), stack("test")
    return SiteData(train_images=tri, train_masks=trm, test_images=tei, test_masks=tem)


def benchmark_samples(benchmark_seed: int, n_sites: int, train_per_site: int,
                      test_per_site: int, image_size: int = 64, classes: int = 1) -> list:
    """Per-site sample lists; deterministic in the benchmark seed."""
    return [generate_site(style, k, train_per_site, test_per_site,
                          seed=[int(benchmark_seed), k, 0xDA7A],
                          image_size=image_size, classes=classes)
            for k, style in enumerate(default_styles(benchmark_seed, n_sites))]


def generate_benchmark(benchmark_seed: int, n_sites: int, train_per_site: int,
                       test_per_site: int, image_size: int = 64, classes: int = 1) -> list:
    """One SiteData per site; deterministic in the benchmark seed."""
    return [site_data_from_samples(samples)
            for samples in benchmark_samples(benchmark_seed, n_sites, train_per_site,
                                             test_per_site, image_size, classes)]


# ---------------------------------------------------------------------------
# PGM files and manifests
# ---------------------------------------------------------------------------

def write_pgm(path: str, values: np.ndarray, maxval: int = 65535):
    """P5 binary graymap; 16-bit values are big-endian per the format."""
    arr = np.round(np.clip(values, 0.0, 1.0) * maxval).astype(np.uint16 if maxval > 255 else np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    body = arr.astype(">u2").tobytes() if maxval > 255 else arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(header + body)


def read_pgm(path: str) -> np.ndarray:
    """Returns values normalized to [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if not blob[start:pos].isdigit():
            raise ValueError(f"{path}: truncated or malformed PGM header")
        fields.append(int(blob[start:pos]))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: maxval {maxval} is outside 1..65535")
    count = width * height
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    if len(blob) - pos < count * dtype.itemsize:
        raise ValueError(f"{path}: truncated pixel data")
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
    top = int(data.max(initial=0))
    if top > maxval:
        raise ValueError(f"{path}: pixel value {top} exceeds maxval {maxval}")
    return data.reshape(height, width).astype(np.float64) / maxval


def write_dataset(per_site_samples: list, out_dir: str) -> str:
    """Write PGM pairs plus a manifest; returns the manifest path.

    A PGM mask holds one class, so every sample must have exactly one.
    """
    for site, samples in enumerate(per_site_samples):
        for i, s in enumerate(samples):
            if s.mask.shape[0] != 1:
                raise ValueError(f"site {site} sample {i}: mask has {s.mask.shape[0]} "
                                 "classes, but the PGM dataset format holds one")
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for site, samples in enumerate(per_site_samples):
        for i, s in enumerate(samples):
            img_rel = f"site{site}_{s.split}_{i:04d}_img.pgm"
            mask_rel = f"site{site}_{s.split}_{i:04d}_mask.pgm"
            write_pgm(os.path.join(out_dir, img_rel), s.image, maxval=65535)
            write_pgm(os.path.join(out_dir, mask_rel), s.mask[0], maxval=255)
            lines.append(f"{site} {s.split} {img_rel} {mask_rel}")
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w") as fh:
        fh.write("# site split image mask\n")
        fh.write("\n".join(lines) + "\n")
    return manifest


def load_directory(manifest_path: str) -> list:
    """Samples from a manifest of image/mask pairs; masks binarize at 0.5."""
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    base = os.path.dirname(os.path.abspath(manifest_path))
    samples = []
    with open(manifest_path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{manifest_path}:{ln}: expected 'site split image mask'")
            site, split, img_rel, mask_rel = parts
            if not (site.isascii() and site.isdigit()):
                raise ValueError(f"{manifest_path}:{ln}: bad site {site!r}")
            if split not in ("train", "test"):
                raise ValueError(f"{manifest_path}:{ln}: bad split {split!r}")
            img_path = os.path.join(base, img_rel)
            mask_path = os.path.join(base, mask_rel)
            for p in (img_path, mask_path):
                if not os.path.exists(p):
                    raise FileNotFoundError(f"{manifest_path}:{ln}: missing file {p}")
            image = read_pgm(img_path)
            mask = read_pgm(mask_path)
            if image.shape != mask.shape:
                raise ValueError(
                    f"{manifest_path}:{ln}: size mismatch {img_rel} {image.shape} "
                    f"vs {mask_rel} {mask.shape}")
            samples.append(Sample(image=image,
                                  mask=(mask >= 0.5).astype(np.float64)[None],
                                  site=int(site), split=split))
    return samples

"""Synthetic heterogeneous multi-site data and a plain-file dataset loader.

Each site gets a deterministic rendering style (intensity, contrast, noise,
blur, texture, shape family, size prior), so the sites genuinely disagree in
appearance while sharing the same task: segment one smooth foreground shape
per grayscale image (with ``classes=2``, also a concentric inner structure
inside it).  One rule draws every mask: the pixel at radius r and angle φ
about the center is foreground iff r <= radius(φ), its shape family's
boundary.  Generated images are quantized to the 16-bit grid, so writing
them to disk and reloading reproduces the arrays exactly.

A site's data has one in-memory form, `SiteData`: `generate_site` and
`load_directory` return it and `write_dataset` writes it.  It is held as it
is stored: each image as its uint16 pixel codes with the image's maxval,
each mask as one bool plane per class.  `Split.images` decodes one batch at
a time to the run's float dtype, as code / maxval divided in float64.  A
generated image has maxval 65535; a loaded one keeps its file's maxval.

File format: portable graymaps (PGM, P5), 16-bit for generated images, 8-bit
for masks (one file per class), plus a whitespace-separated manifest with one
record per sample: ``site split image-path mask-path [mask-path ...]`` (paths
relative to the manifest).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np
# numpy 2 loads numpy.random on first use; load it with the other imports
import numpy.random  # noqa: F401


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
class Split:
    """One split of a site as stored: 2 bytes per image pixel, 1 byte per
    mask pixel and class, and each image's maxval."""

    codes: np.ndarray   # (n, 1, H, W) uint16
    maxval: np.ndarray  # (n, 1, 1, 1) uint16
    masks: np.ndarray   # (n, N, H, W) bool

    def images(self, idx, dtype) -> np.ndarray:
        """The images `idx` as `dtype`: code / maxval in float64, then cast.
        Decodes only the batch that `idx` selects."""
        return (self.codes[idx] / self.maxval[idx]).astype(dtype, copy=False)


@dataclass
class SiteData:
    """A site's train and test splits, held as stored: uint16 image codes
    with each image's maxval, and bool masks (see `Split`)."""

    train: Split
    test: Split


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
# shape families
# ---------------------------------------------------------------------------

def _ellipse_radius(phi, r_eq, rng):
    q = rng.uniform(0.55, 0.95)
    theta = rng.uniform(0, np.pi)
    a, b = r_eq / np.sqrt(q), r_eq * np.sqrt(q)
    c, s = np.cos(phi - theta), np.sin(phi - theta)
    return a * b / np.sqrt((b * c) ** 2 + (a * s) ** 2)


def _blob_radius(phi, r_eq, rng):
    amps = rng.uniform(0.0, 0.22, size=4)
    phases = rng.uniform(0, 2 * np.pi, size=4)
    radius = np.ones_like(phi)
    for h, (a, p) in enumerate(zip(amps, phases), start=2):
        radius = radius + a * np.cos(h * phi + p)
    return r_eq * np.clip(radius, 0.4, None)


def _polygon_radius(phi, r_eq, rng):
    n = int(rng.integers(5, 9))
    base = rng.uniform(0, 2 * np.pi)
    angles = base + 2 * np.pi * np.arange(n + 1) / n   # vertex n closes the polygon
    radii = np.resize(r_eq * rng.uniform(0.9, 1.25, size=n), n + 1)
    s = np.minimum((np.mod(phi - base, 2 * np.pi) / (2 * np.pi / n)).astype(int), n - 1)
    # the ray at phi meets edge e, vertex s to s + 1, at dist / cos(phi - psi), where
    # dist is e's distance from the center and psi the angle of e's outward normal
    ey, ex = np.diff(radii * np.sin(angles)), np.diff(radii * np.cos(angles))
    dist = radii[:-1] * radii[1:] * np.sin(np.diff(angles)) / np.hypot(ey, ex)
    psi = np.arctan2(-ex, ey)
    return dist[s] / np.cos(phi - psi[s])


# Each family draws its shape from `rng` and returns the boundary radius(phi) at every
# pixel's angle, for equivalent radius r_eq; the one rule r <= radius(phi) draws a mask.
_FAMILY_RADIUS = {"ellipse": _ellipse_radius, "blob": _blob_radius, "polygon": _polygon_radius}
SHAPE_FAMILIES = tuple(_FAMILY_RADIUS)


def _box_blur(img: np.ndarray, radius: int) -> np.ndarray:
    """Mean over the (2r+1) x (2r+1) window of the last two axes, edges
    replicated; radius 0 is the identity (the running sum would round it).

    Each axis is `scipy.ndimage.uniform_filter1d` with mode "nearest", bit
    for bit: in double, the first window summed from 0.0 in order, then the
    running sum tmp += x[l + size] - x[l] over the edge-padded line, each
    written out as tmp / size and cast to the input's dtype.  The running sum
    is one `np.cumsum` along the axis, a sequential scan over every line at
    once.  lcfed does not import scipy: `scipy.ndimage` takes each process
    longer to import than numpy.
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
        np.cumsum(sums, axis=0, out=sums)
        sums /= size
        img = np.moveaxis(sums.astype(img.dtype, copy=False), 0, axis)
    return np.ascontiguousarray(img)


def generate_site(style: SiteStyle, n_train: int, n_test: int, seed,
                  image_size: int = 64, classes: int = 1) -> SiteData:
    """A site of n_train then n_test images rendered per the style;
    deterministic in (style, n_train + n_test, seed)."""
    if n_train + n_test < 1:
        raise ValueError("need at least one sample")
    if classes not in (1, 2):
        raise ValueError(f"generator supports 1 or 2 classes, got {classes}")
    style.validate()
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:image_size, 0:image_size].astype(np.float64)
    sample_masks, clean, noise = [], [], []
    for idx in range(n_train + n_test):
        cy = image_size * rng.uniform(0.3, 0.7)
        cx = image_size * rng.uniform(0.3, 0.7)
        area = rng.uniform(*style.size_range) * image_size * image_size
        r_eq = np.sqrt(area / np.pi)
        dy, dx = ys - cy, xs - cx
        r, phi = np.hypot(dy, dx), np.arctan2(dy, dx)
        mask = r <= _FAMILY_RADIUS[style.shape_family](phi, r_eq, rng)
        if not mask.any():
            raise ValueError("degenerate style produced an empty shape")

        masks = [mask]
        if classes == 2:
            # concentric inner structure, contained in the outer shape
            masks.append(mask & (r <= 0.55 * r_eq))

        alpha = rng.uniform(0, np.pi)
        phase = rng.uniform(0, 2 * np.pi)
        wave = np.sin(2 * np.pi * style.texture_freq *
                      (xs * np.cos(alpha) + ys * np.sin(alpha)) / image_size + phase)
        background = 0.38 + 0.1 * wave
        foreground = 0.78 - 0.18 * np.clip(r / max(r_eq, 1.0), 0, 1) + 0.03 * wave
        canonical = np.where(mask, foreground, background)

        sample_masks.append(np.stack(masks))
        clean.append(style.contrast_gain * (canonical - 0.5) + 0.5 + style.intensity_offset)
        noise.append(rng.normal(0.0, style.noise_std, canonical.shape))

    # the blur draws no random numbers, so it runs once over the whole stack
    images = _box_blur(np.stack(clean), style.blur_radius) + np.stack(noise)
    images = np.clip(images, 0.0, 1.0)
    # the 16-bit grid, so a file round trips exactly
    codes = np.round(images * 65535.0).astype(np.uint16)[:, None]
    maxval = np.full((len(codes), 1, 1, 1), 65535, dtype=np.uint16)
    masks = np.stack(sample_masks)
    return SiteData(train=Split(codes[:n_train], maxval[:n_train], masks[:n_train]),
                    test=Split(codes[n_train:], maxval[n_train:], masks[n_train:]))


def generate_benchmark(benchmark_seed: int, n_sites: int, train_per_site: int,
                       test_per_site: int, image_size: int = 64, classes: int = 1) -> list:
    """One SiteData per site; deterministic in the benchmark seed."""
    return [generate_site(style, train_per_site, test_per_site,
                          seed=[int(benchmark_seed), k, 0xDA7A],
                          image_size=image_size, classes=classes)
            for k, style in enumerate(default_styles(benchmark_seed, n_sites))]


# ---------------------------------------------------------------------------
# PGM files and manifests
# ---------------------------------------------------------------------------

def write_pgm(path: str, codes: np.ndarray, maxval: int = 65535):
    """P5 binary graymap of unsigned integer pixel codes, the inverse of
    `read_pgm`; 16-bit codes are big-endian per the format."""
    if codes.dtype.kind != "u":
        raise ValueError(f"{path}: pixel codes must be unsigned integers, not {codes.dtype}")
    top = int(codes.max(initial=0))
    if top > maxval:
        raise ValueError(f"{path}: pixel value {top} exceeds maxval {maxval}")
    header = f"P5\n{codes.shape[1]} {codes.shape[0]}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + codes.astype(">u2" if maxval > 255 else np.uint8).tobytes())


def read_pgm(path: str) -> tuple:
    """Returns (uint16 pixel codes of shape (H, W), maxval); a pixel's value
    is code / maxval."""
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
    return data.reshape(height, width).astype(np.uint16), maxval


def write_dataset(sites: list, out_dir: str) -> str:
    """Write each site's train then test images, one mask PGM per class, and
    a manifest; returns the manifest path.  An earlier dataset's manifest is
    removed first and the new one renamed into place last, so a failed write
    leaves no manifest to load; then the ``site*_*.pgm`` files in the writer's
    naming that the manifest does not list are removed, and no other file."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "manifest.txt")
    if os.path.exists(manifest):
        os.remove(manifest)
    lines = []
    for site, site_data in enumerate(sites):
        idx = 0  # one running index over the site's train then test rows
        for name, split in (("train", site_data.train), ("test", site_data.test)):
            for codes, maxval, masks in zip(split.codes[:, 0], split.maxval.ravel(), split.masks):
                stem = f"site{site}_{name}_{idx:04d}"
                idx += 1
                write_pgm(os.path.join(out_dir, f"{stem}_img.pgm"), codes, maxval=int(maxval))
                # class 0's mask has the name a 1-class dataset gives its only mask
                mask_rels = [f"{stem}_mask{c or ''}.pgm" for c in range(len(masks))]
                for rel, plane in zip(mask_rels, masks):
                    write_pgm(os.path.join(out_dir, rel), plane * np.uint8(255), maxval=255)
                lines.append(" ".join([str(site), name, f"{stem}_img.pgm", *mask_rels]))
    with open(manifest + ".tmp", "w") as fh:
        fh.write("# site split image mask\n")
        fh.write("\n".join(lines) + "\n")
    os.replace(manifest + ".tmp", manifest)
    for name in set(os.listdir(out_dir)) - {rel for ln in lines for rel in ln.split()[2:]}:
        if re.fullmatch(r"site\d+_(train|test)_\d{4,}_(img|mask\d*)\.pgm", name):
            os.remove(os.path.join(out_dir, name))
    return manifest


def _stack(rows: list) -> Split:
    codes, maxval, masks = zip(*rows)
    return Split(codes=np.stack(codes)[:, None],
                 maxval=np.array(maxval, dtype=np.uint16).reshape(-1, 1, 1, 1),
                 masks=np.stack(masks))


def load_directory(manifest_path: str) -> list:
    """One SiteData per site from a manifest of image/mask records, one mask
    file per class; masks binarize at 0.5.  Each record must have the first
    record's image size and class count; there must be at least one record,
    and every site 0..K-1 needs both splits.  A fault names ``path:line`` or
    the manifest."""
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    base = os.path.dirname(os.path.abspath(manifest_path))
    records = {}   # (site, split) -> [(codes, maxval, masks)]
    first = None   # the first record's image shape and class count
    with open(manifest_path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 4:
                raise ValueError(f"{manifest_path}:{ln}: expected 'site split image mask', "
                                 "with one mask per class")
            site, split, img_rel, *mask_rels = parts
            if not (site.isascii() and site.isdigit()):
                raise ValueError(f"{manifest_path}:{ln}: bad site {site!r}")
            if split not in ("train", "test"):
                raise ValueError(f"{manifest_path}:{ln}: bad split {split!r}")
            if first and len(mask_rels) != first[1]:
                raise ValueError(f"{manifest_path}:{ln}: {len(mask_rels)} mask(s), but the "
                                 f"first record has {first[1]}")
            paths = [os.path.join(base, rel) for rel in [img_rel, *mask_rels]]
            for p in paths:
                if not os.path.exists(p):
                    raise FileNotFoundError(f"{manifest_path}:{ln}: missing file {p}")
            image, maxval = read_pgm(paths[0])
            first = first or (image.shape, len(mask_rels))
            if image.shape != first[0]:
                raise ValueError(f"{manifest_path}:{ln}: {img_rel} is {image.shape}, but the "
                                 f"first record's image is {first[0]}")
            planes = []
            for rel, p in zip(mask_rels, paths[1:]):
                codes, mask_max = read_pgm(p)
                if codes.shape != image.shape:
                    raise ValueError(
                        f"{manifest_path}:{ln}: size mismatch {img_rel} {image.shape} "
                        f"vs {rel} {codes.shape}")
                planes.append(codes / mask_max >= 0.5)
            records.setdefault((int(site), split), []).append((image, maxval, np.stack(planes)))
    if not records:
        raise ValueError(f"{manifest_path}: lists no samples")
    n_sites = max(site for site, _ in records) + 1
    for k in range(n_sites):
        for split in ("train", "test"):
            if (k, split) not in records:
                raise ValueError(f"{manifest_path}: site {k} has no {split} samples")
    return [SiteData(train=_stack(records[k, "train"]), test=_stack(records[k, "test"]))
            for k in range(n_sites)]

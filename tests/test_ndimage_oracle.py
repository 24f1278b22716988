"""lcfed's numpy filters against the scipy.ndimage calls they reproduce.

lcfed imports numpy only; scipy is a test dependency and serves here as the
oracle.  Each function must equal its scipy call bit for bit (compared with
`tobytes()`), in float32 and float64, on negative values, signed zeros and
ties, at every window size the config allows, and on images smaller than
the window.  A subprocess run with scipy made unimportable checks that no
code path of the command line loads it.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import lcfed
from lcfed import data, hc, metrics
from lcfed.tensor import Tensor

ndimage = pytest.importorskip("scipy.ndimage")

DTYPES = [np.float32, np.float64]
WINDOWS = [1, 3, 11, 13]          # nms_delta and gauss_size values the config accepts
BLUR_RADII = [1, 2]               # the nonzero radii SiteStyle accepts
SHAPES = [(2, 3, 9, 11), (1, 2, 3, 2), (2, 1, 1, 7), (1, 1, 1, 1)]


def values(kind, shape, dtype, seed):
    """Inputs with negatives ("normal"), plateaus of equal values ("ties") or
    a mix of 0.0 and -0.0 among a few nonzeros ("zeros")."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        x = rng.standard_normal(shape)
    elif kind == "ties":
        x = rng.integers(-2, 3, size=shape).astype(np.float64)
    else:
        x = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        x = np.where(rng.random(shape) < 0.1, rng.standard_normal(shape), x)
    return x.astype(dtype)


KINDS = ["normal", "ties", "zeros"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("delta", WINDOWS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_nms2d_equals_scipy_maximum_filter(dtype, delta, shape, kind):
    u = values(kind, shape, dtype, seed=delta)
    window_max = ndimage.maximum_filter(u, size=(1, 1, delta, delta), mode="constant",
                                        cval=-np.inf)
    keep = u >= window_max
    t = Tensor(u.copy(), requires_grad=True)
    out = hc.nms2d(t, delta)
    out.sum().backward()
    assert out.data.dtype == dtype
    assert out.data.tobytes() == np.where(keep, u, 0).tobytes()
    assert t.grad.tobytes() == keep.astype(dtype).tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("size", WINDOWS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_gaussian_spread_equals_scipy_correlate1d(dtype, size, shape, kind):
    u = values(kind, shape, dtype, seed=size)
    g = values("normal", shape, dtype, seed=size + 100)
    k1 = hc.gaussian_kernel_1d(size, 2.5).astype(dtype)

    def scipy_spread(x):
        rows = ndimage.correlate1d(x, k1, axis=-2, mode="constant")
        return ndimage.correlate1d(rows, k1, axis=-1, mode="constant")

    t = Tensor(u.copy(), requires_grad=True)
    out = hc.gaussian_spread(t, size, 2.5)
    (out * Tensor(g)).sum().backward()
    assert out.data.dtype == t.grad.dtype == dtype
    assert out.data.tobytes() == scipy_spread(u).tobytes()
    assert t.grad.tobytes() == scipy_spread(g).tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", [(7, 9), (3, 8, 6), (2, 3), (1, 1), (4, 1, 2)])
@pytest.mark.parametrize("radius", BLUR_RADII)
@pytest.mark.parametrize("dtype", DTYPES)
def test_box_blur_equals_scipy_uniform_filter1d(dtype, radius, shape, kind):
    img = values(kind, shape, dtype, seed=radius)

    def scipy_blur(x):
        for axis in (-2, -1):
            x = ndimage.uniform_filter1d(x, 2 * radius + 1, axis=axis, mode="nearest")
        return x

    # a stack of images blurs as each image alone
    expected = np.stack([scipy_blur(im) for im in img.reshape((-1,) + shape[-2:])])
    got = data._box_blur(img, radius)
    assert got.dtype == dtype and got.shape == shape
    assert got.tobytes() == expected.tobytes()


def disk(h, w, cy, cx, r):
    ys, xs = np.mgrid[0:h, 0:w]
    return (ys - cy) ** 2 + (xs - cx) ** 2 <= r * r


def mask_pairs():
    """(pred, gt) pairs: trained-like predictions (a shifted or grown disk, a
    shape cut by the border, a stray blob) and salt-and-pepper ones."""
    rng = np.random.default_rng(7)
    pairs = {}
    for n in (32, 64):
        gt = disk(n, n, n / 2, n / 2 - 1, n / 4)
        pairs[f"shifted-{n}"] = disk(n, n, n / 2 + 1, n / 2, n / 4 + 1), gt
        stray = disk(n, n, n / 2, n / 2, n / 4) | disk(n, n, 3, n - 4, 2)
        pairs[f"stray-blob-{n}"] = stray, gt
        pairs[f"border-{n}"] = disk(n, n, 2, n / 2, n / 3), gt
        for p in (0.05, 0.5, 0.9):
            pairs[f"salt-pepper-{p}-{n}"] = rng.random((n, n)) < p, gt
    pairs["single-pixels"] = disk(9, 12, 1, 1, 0), disk(9, 12, 7, 10, 0)
    pairs["wide"] = disk(5, 40, 2, 10, 3), disk(5, 40, 2, 30, 2)
    return pairs


PAIRS = mask_pairs()


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_assd_distances_equal_scipy_distance_transform_edt(name):
    pred, gt = PAIRS[name]
    bp, bg = metrics.boundary_pixels(pred), metrics.boundary_pixels(gt)
    for feature, query in ((bg, bp), (bp, bg)):
        expected = ndimage.distance_transform_edt(~feature)[query]
        assert metrics.distances_to(feature, query).tobytes() == expected.tobytes()
    expected = 0.5 * (float(ndimage.distance_transform_edt(~bg)[bp].mean())
                      + float(ndimage.distance_transform_edt(~bp)[bg].mean()))
    assert metrics.assd(pred, gt) == expected


GUARD = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises
from lcfed import cli
out = sys.argv[1]
common = ["--set", "sites=2", "--set", "benchmark_seed=1", "--set", "image_size=16",
          "--set", "channels=4,8"]
assert cli.main(["run", "--out", out + "/run", "--set", "mode=lcfed", "--set", "rounds=2",
                 *common, "--set", "batch_size=3",
                 "--set", "train_per_site=3", "--set", "test_per_site=2",
                 "--set", "classes=2", "--set", "checkpoint_every=1"]) == 0
assert cli.main(["report", out + "/run"]) == 0
assert cli.main(["gen-data", "--out", out + "/data", *common, "--set", "train_per_site=2",
                 "--set", "test_per_site=1"]) == 0
assert not any(name == "scipy" or name.startswith("scipy.")
               for name, mod in sys.modules.items() if mod is not None)
"""


def test_the_command_line_never_imports_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(lcfed.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", GUARD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert os.path.exists(tmp_path / "run" / "summary.txt")
    assert os.path.exists(tmp_path / "data" / "manifest.txt")

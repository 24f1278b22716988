"""U-shaped segmentation network over one table of named parameters.

Five encoding stages (3x3 conv block + 2x max pool between), matching
decoder stages (1x1 up-projection, 2x upsampling joined to the skip, conv
block), a channel-selection generator attached at the deepest feature, and
two heads: a coarse head and a calibrated head applied after the
disagreement-gated feature.  A conv block is conv3x3 -> instance norm and
relu, one graph node (`layers.instance_norm`); the skip join writes the skip
and the upsampled map into one buffer (`layers.upsample_nearest2x`), so the
graph keeps neither a pre-relu map nor an upsampled one.  Every 1x1 map,
up-projection or head, is a `layers.per_pixel_linear` with a (Cin, Cout)
weight and a bias.

`SegmentationModel.__init__` names and draws every parameter in one ordered
table, `params`.  Names say where each one sits (``enc<i>.*``, ``up<i>.*``,
``dec<i>.*``, ``pcsgen.*``, ``head_coarse.*``, ``head_calib.*``); a mode's
split in `config.SPLITS` picks its local parameters by these names, and the
table's order is the checkpoint's array order.

The forward pieces, `encode`, `decode` and `head`, are functions of a
{name: Tensor} table passed in.  A training vessel passes its `params`, whose
tensors require gradients, so the forward builds the autodiff graph; constant
tensors over the same arrays give the same maps and build no graph.
"""

from __future__ import annotations

import numpy as np

from .layers import instance_norm, max_pool2x2, per_pixel_linear, upsample_nearest2x
from .pcs import generator_params
from .tensor import Tensor, conv2d


def conv_kernels(cin: int, cout: int, k: int, rng: np.random.Generator, dtype) -> np.ndarray:
    """He-normal (Cout, Cin, k, k) kernels."""
    std = np.sqrt(2.0 / (cin * k * k))
    return (rng.standard_normal((cout, cin, k, k)) * std).astype(dtype)


class SegmentationModel:
    """A parameter table: draws every initial array and holds it as a tensor
    that requires a gradient.  A training vessel keeps the tensors and the
    last step's gradients; each local update rebinds their ``.data`` to a site's."""

    def __init__(self, channels: tuple, classes: int, n_sites: int,
                 rng: np.random.Generator, dtype=np.float64, pcs: bool = True):
        ch = channels
        arrays = {}

        def block(prefix, cin, cout):
            # the conv has no bias: the norm subtracts each channel's mean, so
            # a bias would cancel in the forward pass and get a zero gradient
            arrays[f"{prefix}.conv.w"] = conv_kernels(cin, cout, 3, rng, dtype)
            arrays[f"{prefix}.norm.g"] = np.ones(cout, dtype=dtype)
            arrays[f"{prefix}.norm.o"] = np.zeros(cout, dtype=dtype)

        def per_pixel(prefix, weight):
            arrays[f"{prefix}.w"] = weight
            arrays[f"{prefix}.b"] = np.zeros(weight.shape[1], dtype=dtype)

        for i, c in enumerate(ch):
            block(f"enc{i}", ch[i - 1] if i else 1, c)   # grayscale input
        # the decoder mirrors the encoder: 1x1 projection, upsample + skip join, conv block
        for i, lvl in enumerate(range(len(ch) - 2, -1, -1)):
            # He-normal, drawn in (Cout, Cin) order (the golden pins fix these
            # draws) and stored as a (Cin, Cout) map like the heads' weights
            kernels = conv_kernels(ch[lvl + 1], ch[lvl], 1, rng, dtype)
            per_pixel(f"up{i}", np.ascontiguousarray(kernels[:, :, 0, 0].T))
            block(f"dec{i}", 2 * ch[lvl], ch[lvl])
        # drawn even without PCS, so the heads get the same numbers either way
        generator = generator_params(n_sites, ch[-1], rng, dtype)
        if pcs:
            arrays.update(generator)
        std = np.sqrt(1.0 / ch[0])
        for prefix in ("head_coarse", "head_calib"):
            per_pixel(prefix, (rng.standard_normal((ch[0], classes)) * std).astype(dtype))

        self.params = {n: Tensor(a, requires_grad=True) for n, a in arrays.items()}

    # -- parameter plumbing ---------------------------------------------------

    def named_parameters(self):
        """(name, tensor, stage) triples in table order; the stage is the
        name's first component (``enc0``, ``pcsgen``, ``head_coarse``), and
        `perfbench/tracer.py` unpacks the triple."""
        return [(n, t, n.split(".", 1)[0]) for n, t in self.params.items()]


# -- forward pieces: functions of a {name: Tensor} table -------------------------

def _block(p: dict, prefix: str, x: Tensor) -> Tensor:
    return instance_norm(conv2d(x, p[f"{prefix}.conv.w"]),
                         p[f"{prefix}.norm.g"], p[f"{prefix}.norm.o"])


def head(p: dict, prefix: str, f: Tensor) -> Tensor:
    """The logits of head `prefix` (``head_coarse`` or ``head_calib``)."""
    return per_pixel_linear(f, p[f"{prefix}.w"], p[f"{prefix}.b"])


def encode(p: dict, x: Tensor):
    """Returns (skip features, deepest feature); the table's ``enc<i>``
    blocks set the depth."""
    skips = []
    f = _block(p, "enc0", x)
    i = 1
    while f"enc{i}.conv.w" in p:
        skips.append(f)
        f = _block(p, f"enc{i}", max_pool2x2(f))
        i += 1
    return skips, f


def decode(p: dict, f: Tensor, skips) -> Tensor:
    for i, skip in enumerate(reversed(skips)):
        # nearest upsampling commutes with the per-pixel 1x1 projection, so
        # projecting first gives the same values on a quarter of the pixels
        f = upsample_nearest2x(per_pixel_linear(f, p[f"up{i}.w"], p[f"up{i}.b"]), skip)
        f = _block(p, f"dec{i}", f)
    return f

"""U-shaped segmentation network with named parameters.

Five encoding stages (3x3 conv block + 2x max pool between), matching
decoder stages (1x1 up-projection, 2x upsampling, skip concatenation, conv
block), a channel-selection generator attached at the deepest feature, and
two heads: a coarse head and a calibrated head applied after the
disagreement-gated feature.  Every 1x1 map, up-projection or head, is a
`layers.PerPixelLinear` with a (Cin, Cout) weight and a bias.  Parameter
names say where each one sits (``enc<i>.*``, ``up<i>.*``, ``dec<i>.*``,
``pcsgen.*``, ``head_coarse.*``, ``head_calib.*``); a mode's row in
`config.MODES` picks its local parameters by these names.
"""

from __future__ import annotations

import numpy as np

from .layers import ConvBlock, PerPixelLinear, conv_kernels, max_pool2x2, upsample_nearest2x
from .pcs import PCSGenerator
from .tensor import Tensor, concat


class SegmentationModel:
    """Holds all parameter tensors for one site's model instance."""

    def __init__(self, channels: tuple, classes: int, n_sites: int,
                 rng: np.random.Generator, dtype=np.float64, pcs: bool = True):
        ch = channels

        self.encoders = []
        cin = 1   # grayscale input
        for c in ch:
            self.encoders.append(ConvBlock(cin, c, rng, dtype))
            cin = c

        # decoder mirrors the encoder: 1x1 projection, upsample, skip concat, conv block
        self.up_projs = []
        self.decoders = []
        for i in range(len(ch) - 2, -1, -1):
            # He-normal, drawn in (Cout, Cin) order (the golden pins fix these
            # draws) and stored as a (Cin, Cout) map like the heads' weights
            kernels = conv_kernels(ch[i + 1], ch[i], 1, rng, dtype)
            self.up_projs.append(PerPixelLinear(np.ascontiguousarray(kernels[:, :, 0, 0].T)))
            self.decoders.append(ConvBlock(2 * ch[i], ch[i], rng, dtype))

        # drawn even without PCS, so the heads get the same numbers either way
        pcs_gen = PCSGenerator(n_sites, ch[-1], rng, dtype)
        self.pcs_gen = pcs_gen if pcs else None
        std = np.sqrt(1.0 / ch[0])
        self.coarse_head, self.calib_head = (
            PerPixelLinear((rng.standard_normal((ch[0], classes)) * std).astype(dtype))
            for _ in range(2))

        self._named = []
        for i, enc in enumerate(self.encoders):
            self._collect(f"enc{i}", enc)
        for i, (proj, dec) in enumerate(zip(self.up_projs, self.decoders)):
            self._collect(f"up{i}", proj)
            self._collect(f"dec{i}", dec)
        if pcs:
            self._collect("pcsgen", pcs_gen)
        self._collect("head_coarse", self.coarse_head)
        self._collect("head_calib", self.calib_head)
        names = [n for n, _, _ in self._named]
        if len(names) != len(set(names)):
            raise ValueError("duplicate parameter names in model")

    def _collect(self, prefix: str, layer):
        for name, t in layer.parameters():
            self._named.append((f"{prefix}.{name}", t, layer))

    # -- parameter plumbing ---------------------------------------------------

    def named_parameters(self):
        """(name, tensor, layer) triples in registration order; the owning
        layer fills the third slot, which `perfbench/tracer.py` unpacks."""
        return list(self._named)

    def get_params(self) -> dict:
        """Copy out {name: array} for every parameter, in registration order."""
        return {n: t.data.copy() for n, t, _ in self._named}

    def load_params(self, values: dict):
        by_name = {n: t for n, t, _ in self._named}
        for name, arr in values.items():
            t = by_name.get(name)
            if t is None:
                raise ValueError(f"model has no parameter {name!r}")
            if t.data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: {t.data.shape} vs {arr.shape}")
            np.copyto(t.data, arr)

    # -- forward pieces ---------------------------------------------------------

    def encode(self, x: Tensor):
        """Returns (skip features, deepest feature)."""
        skips = []
        f = x
        for i, enc in enumerate(self.encoders):
            f = enc(f)
            if i < len(self.encoders) - 1:
                skips.append(f)
                f = max_pool2x2(f)
        return skips, f

    def decode(self, f: Tensor, skips) -> Tensor:
        for proj, dec, skip in zip(self.up_projs, self.decoders, reversed(skips)):
            # nearest upsampling commutes with the per-pixel 1x1 projection, so
            # projecting first gives the same values on a quarter of the pixels
            f = upsample_nearest2x(proj(f))
            f = dec(concat([skip, f], axis=1))
        return f

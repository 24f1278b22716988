"""U-shaped segmentation network with named parameters.

Five encoding stages (conv block + 2x max pool between), matching decoder
stages with skip concatenation, a channel-selection generator attached at the
deepest feature, and two per-pixel linear heads: a coarse head and a
calibrated head applied after the disagreement-gated feature.  Parameter
names say where each one sits (``enc<i>.*``, ``up<i>.*``, ``dec<i>.*``,
``pcsgen.*``, ``head_coarse.*``, ``head_calib.*``); a mode's row in
`config.MODES` picks its local parameters by these names.
"""

from __future__ import annotations

import numpy as np

from .layers import ConvBlock, Conv2d, PerPixelLinear, max_pool2x2, upsample_nearest2x
from .pcs import PCSGenerator
from .tensor import Tensor, concat, sigmoid


class SegmentationModel:
    """Holds all parameter tensors for one site's model instance."""

    def __init__(self, channels: tuple, classes: int, n_sites: int,
                 rng: np.random.Generator | None = None, dtype=np.float64, pcs: bool = True):
        if rng is None:
            rng = np.random.default_rng(0)
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
            self.up_projs.append(Conv2d(ch[i + 1], ch[i], 1, rng, dtype))
            self.decoders.append(ConvBlock(2 * ch[i], ch[i], rng, dtype))

        # drawn even without PCS, so the heads get the same numbers either way
        pcs_gen = PCSGenerator(n_sites, ch[-1], rng, dtype)
        self.pcs_gen = pcs_gen if pcs else None
        self.coarse_head = PerPixelLinear(ch[0], classes, rng, dtype)
        self.calib_head = PerPixelLinear(ch[0], classes, rng, dtype)

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

    def parameters(self):
        return [t for _, t, _ in self._named]

    def zero_grad(self):
        for t in self.parameters():
            t.zero_grad()

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

    def coarse_map(self, f_hat: Tensor) -> Tensor:
        return sigmoid(self.coarse_head(f_hat))

    def calibrated_map(self, f_star: Tensor) -> Tensor:
        return sigmoid(self.calib_head(f_star))

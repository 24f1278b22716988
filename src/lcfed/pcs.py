"""Personalized channel selection.

Each site carries a fixed one-hot identity vector.  A small generator extends
it to channel width (two FC layers with an instance norm and relu between,
one `layers.instance_norm` node),
fuses it with a global-average descriptor of the deepest encoder feature, and
emits a sigmoid gate used for residual channel selection f' = f * (1 + gate).
One generator pass over the K*B identity rows (the descriptor repeated once per
site) yields every site's gate as a (K, B, C) tensor; site k selects with
`gates[k]` through `layers.gate`, the residual gating HC applies too.  A
contrast term pushes site k's gate away from all K gates, which enter as
constants, so no gradient flows through the foreign branches.  The
generator's parameters are named ``pcsgen.*`` by `generator_params`, and
`augment_embedding` reads them by those names from the model's whole
parameter table.
"""

from __future__ import annotations

import numpy as np

from .layers import instance_norm
from .tensor import Tensor, concat, linear, sigmoid, stop_gradient


def generator_params(n_sites: int, channels: int, rng: np.random.Generator,
                     dtype=np.float64) -> dict:
    """The generator's initial arrays, named ``pcsgen.*``: extension fc1
    (one-hot identity -> channels), instance norm, fc2, and the fusion fc over
    [descriptor, extension].  The FC weights are He-normal (Cin, Cout), drawn
    fc1, fc2, fuse; the biases and the norm's shift start at 0, its scale at 1.
    """
    def he(cin, cout):
        return (rng.standard_normal((cin, cout)) * np.sqrt(2.0 / cin)).astype(dtype)

    def zeros():
        return np.zeros(channels, dtype=dtype)

    arrays = {"fc1.w": he(n_sites, channels), "fc1.b": zeros(),
              "norm.g": np.ones(channels, dtype=dtype), "norm.o": zeros(),
              "fc2.w": he(channels, channels), "fc2.b": zeros(),
              "fuse.w": he(2 * channels, channels), "fuse.b": zeros()}
    return {f"pcsgen.{n}": a for n, a in arrays.items()}


def augment_embedding(p: dict, f: Tensor) -> Tensor:
    """Every site's gate in (0,1)^(K x B x C) from its one-hot identity and the
    feature statistics; `p` is a parameter table that holds the generator's
    tensors under the names of `generator_params`.  Row k*B + b of the
    generator pass is site k, sample b."""
    def fc(name, x):
        return linear(x, p[f"pcsgen.{name}.w"], p[f"pcsgen.{name}.b"])

    k, c = p["pcsgen.fc1.w"].shape
    if f.ndim != 4 or f.shape[1] != c:
        raise ValueError(f"feature shape {f.shape} incompatible with {c} channels")
    b = f.shape[0]
    identities = Tensor(np.repeat(np.eye(k, dtype=f.dtype), b, axis=0))
    descriptors = concat([f.mean(axis=(2, 3))] * k, axis=0)
    hidden = instance_norm(fc("fc1", identities), p["pcsgen.norm.g"], p["pcsgen.norm.o"])
    fused = fc("fuse", concat([descriptors, fc("fc2", hidden)], axis=1))
    return sigmoid(fused).reshape(k, b, c)


def site_contrast_loss(gates: Tensor, k: int) -> Tensor:
    """-(1/(K-1)) * sum over i != k of mean |gate_k - gate_i|, gate_i detached.

    Computed as -K/(K-1) * mean |gates[k] - stop_gradient(gates)| over all
    (K, B, C) entries: the i = k term and its subgradient are exactly 0.  The
    mean keeps the magnitude independent of batch and channel count.  With
    fewer than two sites the loss is 0.
    """
    n = gates.shape[0]
    if n < 2:
        return Tensor(np.zeros((), dtype=gates.dtype))
    return (gates[k] - stop_gradient(gates)).abs().mean() * (-n / (n - 1))

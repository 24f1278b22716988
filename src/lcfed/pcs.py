"""Personalized channel selection.

Each site carries a fixed one-hot identity vector.  A small generator extends
it to channel width, fuses it with a global-average descriptor of the deepest
encoder feature, and emits a sigmoid gate used for residual channel selection
f' = f + f * gate.  One generator pass over the K*B identity rows (the
descriptor repeated once per site) yields every site's gate as a (K, B, C)
tensor; site k selects with `gates[k]`.  A contrast term pushes site k's gate
away from all K gates, which enter as constants, so no gradient flows through
the foreign branches.
"""

from __future__ import annotations

import numpy as np

from .layers import Layer, Linear, InstanceNorm
from .tensor import Tensor, concat, global_average_pool, relu, sigmoid, stop_gradient


class PCSGenerator(Layer):
    """Extension (two FC with instance norm + relu between) and gating fusion."""

    def __init__(self, n_sites: int, channels: int, rng: np.random.Generator, dtype=np.float64):
        super().__init__()
        self.n_sites = n_sites
        self.channels = channels
        self.fc1 = Linear(n_sites, channels, rng, dtype)
        self.norm = InstanceNorm(channels, dtype)
        self.fc2 = Linear(channels, channels, rng, dtype)
        self.fuse = Linear(2 * channels, channels, rng, dtype)
        for prefix, child in (("fc1", self.fc1), ("norm", self.norm),
                              ("fc2", self.fc2), ("fuse", self.fuse)):
            for name, t in child.parameters():
                self._params.append((f"{prefix}.{name}", t))

    def extend(self, xi_rows: Tensor) -> Tensor:
        return self.fc2(relu(self.norm(self.fc1(xi_rows))))


def augment_embedding(gen: PCSGenerator, f: Tensor) -> Tensor:
    """Every site's gate in (0,1)^(K x B x C) from its one-hot identity and the
    feature statistics; row k*B + b of the generator pass is site k, sample b."""
    if f.ndim != 4 or f.shape[1] != gen.channels:
        raise ValueError(f"feature shape {f.shape} incompatible with {gen.channels} channels")
    k, b = gen.n_sites, f.shape[0]
    identities = Tensor(np.repeat(np.eye(k, dtype=f.dtype), b, axis=0))
    descriptors = concat([global_average_pool(f)] * k, axis=0)
    fused = gen.fuse(concat([descriptors, gen.extend(identities)], axis=1))
    return sigmoid(fused).reshape(k, b, gen.channels)


def select_channels(f: Tensor, xi_hat: Tensor) -> Tensor:
    """Residual gating: f'[b,c] = f[b,c] * (1 + gate[b,c])."""
    b, c = f.shape[0], f.shape[1]
    if xi_hat.shape != (b, c):
        raise ValueError(f"gate shape {xi_hat.shape} does not match feature {f.shape}")
    return f + f * xi_hat.reshape(b, c, 1, 1)


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

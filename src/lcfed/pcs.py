"""Personalized channel selection.

Each site carries a fixed one-hot identity vector.  A small generator extends
it to channel width, fuses it with a global-average descriptor of the deepest
encoder feature, and emits a sigmoid gate used for residual channel selection
f' = f + f * gate.  A contrast term pushes different sites' gates apart while
blocking gradients through the foreign branches.
"""

from __future__ import annotations

import numpy as np

from . import layers
from .layers import Layer, Linear, InstanceNorm
from .tensor import Tensor, concat, global_average_pool, relu, sigmoid, stop_gradient


class PCSGenerator(Layer):
    """Extension (two FC with instance norm + relu between) and gating fusion."""

    def __init__(self, n_sites: int, channels: int, rng: np.random.Generator,
                 group: str = layers.GROUP_PCS, dtype=np.float64):
        super().__init__(group)
        self.n_sites = n_sites
        self.channels = channels
        self.fc1 = Linear(n_sites, channels, rng, group, dtype)
        self.norm = InstanceNorm(channels, group, dtype)
        self.fc2 = Linear(channels, channels, rng, group, dtype)
        self.fuse = Linear(2 * channels, channels, rng, group, dtype)
        for prefix, child in (("fc1", self.fc1), ("norm", self.norm),
                              ("fc2", self.fc2), ("fuse", self.fuse)):
            for name, t in child.parameters():
                self._params.append((f"{prefix}.{name}", t))

    def extend(self, xi_rows: Tensor) -> Tensor:
        return self.fc2(relu(self.norm(self.fc1(xi_rows))))


def augment_embedding(gen: PCSGenerator, xi: np.ndarray, f: Tensor) -> Tensor:
    """Gate vector in (0,1)^(B x C) from the site's one-hot row and feature statistics."""
    if xi.shape != (gen.n_sites,):
        raise ValueError(f"embedding shape {xi.shape} != ({gen.n_sites},), one entry per site")
    if f.ndim != 4 or f.shape[1] != gen.channels:
        raise ValueError(f"feature shape {f.shape} incompatible with {gen.channels} channels")
    b = f.shape[0]
    rows = Tensor(np.tile(xi.astype(f.dtype), (b, 1)))
    xi_star = gen.extend(rows)
    descriptor = global_average_pool(f)
    return sigmoid(gen.fuse(concat([descriptor, xi_star], axis=1)))


def select_channels(f: Tensor, xi_hat: Tensor) -> Tensor:
    """Residual gating: f'[b,c] = f[b,c] * (1 + gate[b,c])."""
    b, c = f.shape[0], f.shape[1]
    if xi_hat.shape != (b, c):
        raise ValueError(f"gate shape {xi_hat.shape} does not match feature {f.shape}")
    return f + f * xi_hat.reshape(b, c, 1, 1)


def contrast_from_gates(xi_hat_k: Tensor, others: list) -> Tensor:
    """-(1/(K-1)) * sum over others of mean |gate_k - gate_i|.

    The mean runs over all gate entries (channels, then batch), keeping the
    magnitude independent of the channel count.  Foreign gates are detached.
    """
    total = None
    for other in others:
        term = (xi_hat_k - stop_gradient(other)).abs().mean()
        total = term if total is None else total + term
    return total * (-1.0 / len(others))


def site_contrast_loss(gen: PCSGenerator, f: Tensor, all_embeddings: np.ndarray, k: int,
                       xi_hat_k: Tensor | None = None) -> Tensor:
    """Negative mean distance between site k's gate and the (detached) others.

    With fewer than two sites the loss is 0.
    """
    n = len(all_embeddings)
    if n < 2:
        return Tensor(np.zeros((), dtype=f.dtype))
    if xi_hat_k is None:
        xi_hat_k = augment_embedding(gen, all_embeddings[k], f)
    others = [augment_embedding(gen, xi, f)
              for i, xi in enumerate(all_embeddings) if i != k]
    return contrast_from_gates(xi_hat_k, others)

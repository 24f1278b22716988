"""Disagreement-aware head calibration.

Every site's coarse head is evaluated on the local decoder feature; the
per-pixel deviation of the local prediction from the full set becomes a
disagreement map, sharpened by window-max suppression, spread by a
peak-normalized Gaussian, and applied as residual spatial attention before
the calibrated head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import per_pixel_linear
from .tensor import Tensor, graph_node, sigmoid


@dataclass
class HeadCollection:
    """All sites' coarse-head parameters as relayed by the server."""

    weights: list  # K arrays of shape (C, N)
    biases: list   # K arrays of shape (N,)

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        shapes = {(w.shape, b.shape) for w, b in zip(self.weights, self.biases)}
        if len(shapes) > 1:
            raise ValueError(f"heads must share shapes, got {shapes}")

    def __len__(self):
        return len(self.weights)


def evaluate_heads(f_hat: Tensor, heads: HeadCollection,
                   local_index: int | None = None, local_head=None) -> list:
    """Segmentation maps from every site's coarse head on the local feature.

    Foreign heads enter as constants so no gradient is computed for
    parameters the local site does not own; the local site's own head (when
    given) is evaluated live so it keeps training.
    """
    maps = []
    for i in range(len(heads)):
        if local_head is not None and i == local_index:
            maps.append(sigmoid(local_head(f_hat)))
        else:
            w = Tensor(heads.weights[i].astype(f_hat.dtype, copy=False))
            b = Tensor(heads.biases[i].astype(f_hat.dtype, copy=False))
            maps.append(sigmoid(per_pixel_linear(f_hat, w, b)))
    return maps


def disagreement_map(maps: list, k: int) -> Tensor:
    """Per-pixel deviation of map k from the whole set.

    U^c(p) = sqrt( 1/(K-1) * sum_i (S_k^c(p) - S_i^c(p))^2 ); the i = k term
    contributes zero.  K < 2 yields an all-zero map.
    """
    n = len(maps)
    if n < 2:
        return Tensor(np.zeros(maps[k].shape, dtype=maps[k].dtype))
    total = None
    for i, m in enumerate(maps):
        if i == k:
            continue
        d = maps[k] - m
        sq = d * d
        total = sq if total is None else total + sq
    return (total * (1.0 / (n - 1))).sqrt()


def _window_max(data: np.ndarray, delta: int) -> np.ndarray:
    """Max over the delta x delta neighborhood, clipped at borders (separable)."""
    r = delta // 2
    out = data
    for axis in (-2, -1):
        pad = [(0, 0)] * data.ndim
        pad[axis] = (r, r)
        padded = np.pad(out, pad, constant_values=-np.inf)
        acc = None
        for s in range(delta):
            sl = [slice(None)] * data.ndim
            sl[axis] = slice(s, s + data.shape[axis])
            piece = padded[tuple(sl)]
            acc = piece.copy() if acc is None else np.maximum(acc, piece, out=acc)
        out = acc
    return out


def nms2d(u: Tensor, delta: int) -> Tensor:
    """Keep elements that are >= everything in their delta x delta window.

    Ties survive; suppressed positions become 0.  Each class channel is
    handled independently.  Backward passes gradients to survivors only.
    """
    if delta < 1 or delta % 2 == 0:
        raise ValueError(f"window size must be odd and >= 1, got {delta}")
    if delta == 1:
        return u * 1.0
    mask = u.data >= _window_max(u.data, delta)

    def grad_fn(g):
        u.accumulate_grad(g * mask)

    return graph_node(np.where(mask, u.data, 0), (u,), grad_fn)


def gaussian_kernel_1d(size: int, sigma: float, dtype=np.float64) -> np.ndarray:
    offsets = np.arange(size, dtype=dtype) - size // 2
    return np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))


def gaussian_spread(u: Tensor, size: int, sigma: float) -> Tensor:
    """Correlate with the peak-normalized Gaussian (center weight 1), zero padding.

    The kernel factorizes exactly into two 1-D passes; it is symmetric, so the
    backward pass is the same correlation applied to the output gradient.
    """
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, got {size}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    k1 = gaussian_kernel_1d(size, sigma, np.float64).astype(u.dtype)

    def correlate(data):
        out = data
        r = size // 2
        for axis in (-2, -1):
            pad = [(0, 0)] * data.ndim
            pad[axis] = (r, r)
            padded = np.pad(out, pad)
            acc = np.zeros_like(out)
            for s in range(size):
                sl = [slice(None)] * data.ndim
                sl[axis] = slice(s, s + data.shape[axis])
                acc += k1[s] * padded[tuple(sl)]
            out = acc
        return out

    def grad_fn(g):
        u.accumulate_grad(correlate(g))

    return graph_node(correlate(u.data), (u,), grad_fn)


def attention_from_classes(a: Tensor) -> Tensor:
    """Average the class channels into one spatial attention map (B,1,H,W)."""
    n = a.shape[1]
    out_data = a.data.mean(axis=1, keepdims=True)

    def grad_fn(g):
        a.accumulate_grad(np.broadcast_to(g / n, a.shape))

    return graph_node(out_data, (a,), grad_fn)


def calibrate(f_hat: Tensor, attention: Tensor) -> Tensor:
    """Residual spatial gating: f* = a * f + f with a broadcast over channels."""
    if attention.shape[-2:] != f_hat.shape[-2:]:
        raise ValueError(
            f"attention {attention.shape} does not spatially match feature {f_hat.shape}")
    a = attention if attention.shape[1] == 1 else attention_from_classes(attention)
    return f_hat * a + f_hat


def head_calibration(f_hat: Tensor, heads: HeadCollection, k: int, local_head,
                     delta: int, size: int, sigma: float):
    """Full HC pipeline; returns (local coarse map, calibrated feature)."""
    maps = evaluate_heads(f_hat, heads, k, local_head)
    u = disagreement_map(maps, k)
    attention = gaussian_spread(nms2d(u, delta), size, sigma)
    return maps[k], calibrate(f_hat, attention)

"""Disagreement-aware head calibration.

Every site's coarse head is evaluated on the local feature in one GEMM: the
server relays the K heads already stacked side by side into one (C, K*N)
weight and (K*N,) bias, and the local coarse head's live weight and bias
tensors (from the model's parameter table) take site k's columns.  The
per-pixel deviation of the local prediction from the full set becomes a
disagreement map (one graph node with an analytic backward), sharpened by
window-max suppression, spread by a peak-normalized Gaussian, and applied as
residual spatial attention before the calibrated head.  The relayed
heads' shapes and dtypes are checked once, when a checkpoint is resumed, not
here on every step.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .layers import per_pixel_linear
from .tensor import Tensor, concat, graph_node, sigmoid


def evaluate_heads(f_hat: Tensor, heads: tuple, k: int, weight: Tensor,
                   bias: Tensor) -> Tensor:
    """Segmentation maps (B, K, N, H, W) from every site's coarse head on the
    local feature, in one GEMM over `heads`, the relayed (C, K*N) weight and
    (K*N,) bias.

    Site k's columns k*N..(k+1)*N-1 hold the local coarse head's own `weight`
    and `bias` tensors, evaluated live so the head keeps training; the other
    sites' columns enter as constants, so no gradient is computed for
    parameters the local site does not own.
    """
    n = bias.shape[0]
    lo, hi = k * n, (k + 1) * n
    relayed_w, relayed_b = heads
    w = concat([Tensor(relayed_w[:, :lo]), weight, Tensor(relayed_w[:, hi:])], axis=1)
    b = concat([Tensor(relayed_b[:lo]), bias, Tensor(relayed_b[hi:])], axis=0)
    s = sigmoid(per_pixel_linear(f_hat, w, b))
    bsz, _, h, wd = s.shape
    return s.reshape(bsz, -1, n, h, wd)


def disagreement_map(maps: Tensor, k: int) -> Tensor:
    """Per-pixel deviation of map k from the whole set of (B, K, N, H, W) maps.

    U^c(p) = sqrt( 1/(K-1) * sum_i (S_k^c(p) - S_i^c(p))^2 ); the i = k term
    contributes zero.  K < 2 yields an all-zero map.  One node: with
    d_i = S_k - S_i, dU/dS_i = -d_i / ((K-1) U) and dU/dS_k gains
    sum_i d_i / ((K-1) U); where U = 0 the gradient is clamped to 0.
    """
    n = maps.shape[1]
    if n < 2:
        return Tensor(np.zeros(maps.shape[:1] + maps.shape[2:], dtype=maps.dtype))
    d = maps.data[:, k:k + 1] - maps.data
    out_data = np.sqrt((d * d).sum(axis=1) * (1.0 / (n - 1)))

    def grad_fn(g):
        scaled = np.divide(g, (n - 1) * out_data, out=np.zeros_like(out_data),
                           where=out_data > 0)
        grad = d * -scaled[:, None]
        grad[:, k] = -grad.sum(axis=1)   # grad[:, k] was 0: d_k = 0
        maps.accumulate_grad(grad)

    return graph_node(out_data, (maps,), grad_fn)


def nms2d(u: Tensor, delta: int) -> Tensor:
    """Keep elements that are >= everything in their delta x delta window.

    Ties survive; suppressed positions become 0.  Each class channel is
    handled independently.  Backward passes gradients to survivors only.
    """
    if delta < 1 or delta % 2 == 0:
        raise ValueError(f"window size must be odd and >= 1, got {delta}")
    window_max = ndimage.maximum_filter(u.data, size=(1,) * (u.ndim - 2) + (delta, delta),
                                        mode="constant", cval=-np.inf)
    mask = u.data >= window_max

    def grad_fn(g):
        u.accumulate_grad(g * mask)

    return graph_node(np.where(mask, u.data, 0), (u,), grad_fn)


def gaussian_kernel_1d(size: int, sigma: float) -> np.ndarray:
    offsets = np.arange(size, dtype=np.float64) - size // 2
    return np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))


def gaussian_spread(u: Tensor, size: int, sigma: float) -> Tensor:
    """Correlate with the peak-normalized Gaussian (center weight 1), zero padding.

    The kernel factorizes exactly into two 1-D passes of
    `scipy.ndimage.correlate1d`, which accumulates in double and returns the
    input's dtype; the kernel is symmetric, so the backward pass is the same
    correlation applied to the output gradient.
    """
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, got {size}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    k1 = gaussian_kernel_1d(size, sigma).astype(u.dtype)

    def correlate(data):
        rows = ndimage.correlate1d(data, k1, axis=-2, mode="constant")
        return ndimage.correlate1d(rows, k1, axis=-1, mode="constant")

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
    """Residual spatial gating: f* = a * f + f, with a the class-averaged
    attention broadcast over channels."""
    if attention.shape[-2:] != f_hat.shape[-2:]:
        raise ValueError(
            f"attention {attention.shape} does not spatially match feature {f_hat.shape}")
    return f_hat * attention_from_classes(attention) + f_hat


def head_calibration(f_hat: Tensor, heads: tuple, k: int, weight: Tensor, bias: Tensor,
                     delta: int, size: int, sigma: float):
    """Full HC pipeline with the local coarse head's `weight` and `bias`;
    returns (local coarse map, calibrated feature)."""
    maps = evaluate_heads(f_hat, heads, k, weight, bias)
    u = disagreement_map(maps, k)
    attention = gaussian_spread(nms2d(u, delta), size, sigma)
    return maps[:, k], calibrate(f_hat, attention)

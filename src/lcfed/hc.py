"""Disagreement-aware head calibration.

Every site's coarse head is evaluated on the local feature in one GEMM: the
server relays the K heads already stacked side by side into one (C, K*N)
weight and (K*N,) bias, and the local coarse head's live weight and bias
tensors (from the model's parameter table) take site k's columns.  The
per-pixel deviation of the local prediction from the full set becomes a
disagreement map (one graph node with an analytic backward), sharpened by
window-max suppression, spread by a peak-normalized Gaussian, averaged over
the classes and applied as residual spatial attention (`layers.gate`, the
gating PCS applies too) before the calibrated head.  The relayed
heads' shapes and dtypes are checked once, when a checkpoint is resumed, not
here on every step.

The window max and the Gaussian are numpy reproductions of
`scipy.ndimage.maximum_filter` and `scipy.ndimage.correlate1d`, bit for bit
(the tests hold them to scipy).  lcfed imports numpy only:
`scipy.ndimage` takes each process longer to import than numpy itself.
"""

from __future__ import annotations

import numpy as np

from .layers import gate, per_pixel_linear
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


def _running_max(flat: np.ndarray, size: int, stride: int) -> np.ndarray:
    """Window max of the 1-D `flat` over `size` taps `stride` apart:
    out[i] = max(flat[i], flat[i + stride], ..., flat[i + (size-1)*stride])
    wherever that stays inside `flat`; the tail beyond is left unspecified.
    Log-doubling spans, ping-ponging between `flat` (overwritten) and one
    spare buffer."""
    spare = np.empty_like(flat)
    span = 1
    while span < size:
        step = min(span, size - span)
        shift = step * stride
        np.maximum(flat[:-shift], flat[shift:], out=spare[:-shift])
        flat, spare = spare, flat
        span += step
    return flat


def nms2d(u: Tensor, delta: int) -> Tensor:
    """Keep elements that are >= everything in their delta x delta window.

    Ties survive; suppressed positions become 0.  Each class channel is
    handled independently.  Backward passes gradients to survivors only.
    The window max is `scipy.ndimage.maximum_filter` with
    size (1, ..., delta, delta), mode "constant" and cval -inf, computed as
    two separable passes over one flat buffer padded with -inf.  A max takes
    no rounding, so the survivors equal scipy's on any NaN-free input.
    scipy itself is not imported (see the module docstring).
    """
    if delta < 1 or delta % 2 == 0:
        raise ValueError(f"window size must be odd and >= 1, got {delta}")
    r = delta // 2
    h, w = u.shape[-2:]
    padded = np.full(u.shape[:-2] + (h + 2 * r, w + 2 * r), -np.inf, dtype=u.dtype)
    padded[..., r:r + h, r:r + w] = u.data
    # a window starting in a row's last 2r columns runs into the next row;
    # those starts are not kept, so the padded rows can be passed as one line
    flat = _running_max(padded.reshape(-1), delta, 1)
    flat = _running_max(flat, delta, w + 2 * r)
    mask = u.data >= flat.reshape(padded.shape)[..., :h, :w]

    def grad_fn(g):
        u.accumulate_grad(g * mask)

    return graph_node(np.where(mask, u.data, 0), (u,), grad_fn)


def gaussian_kernel_1d(size: int, sigma: float) -> np.ndarray:
    offsets = np.arange(size, dtype=np.float64) - size // 2
    return np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))


def _correlate_symmetric(padded: np.ndarray, kernel: np.ndarray, stride: int) -> np.ndarray:
    """Correlate the flattened float64 `padded` with a symmetric float64 kernel
    whose taps lie `stride` elements apart, in the order
    `scipy.ndimage.correlate1d` uses for a symmetric kernel: x[i]*w[c], then
    += (x[i-j] + x[i+j]) * w[c-j] for j = c..1, with c = len(kernel) // 2.

    Returns an array of `padded`'s shape.  Each line must carry c taps of
    zero padding on both sides, so the taps never reach another line's data;
    the result is 0 in the first and last c taps of the flat array.
    """
    flat = padded.reshape(-1)
    c = kernel.shape[0] // 2
    lo = c * stride
    n = flat.size - 2 * lo
    res = np.zeros(flat.size)
    out = np.multiply(flat[lo:lo + n], kernel[c], out=res[lo:lo + n])
    pair = np.empty(n)
    for j in range(c, 0, -1):
        np.add(flat[lo - j * stride:lo - j * stride + n], flat[lo + j * stride:lo + j * stride + n],
               out=pair)
        pair *= kernel[c - j]
        out += pair
    return res.reshape(padded.shape)


def gaussian_spread(u: Tensor, size: int, sigma: float) -> Tensor:
    """Correlate with the peak-normalized Gaussian (center weight 1), zero padding.

    The kernel factorizes exactly into two 1-D passes, first along the rows'
    axis (-2), then along the columns' (-1).  Each pass is
    `scipy.ndimage.correlate1d` with mode "constant" and the kernel cast to
    the input's dtype, bit for bit: it accumulates in double in scipy's order
    for a symmetric kernel and casts to the input's dtype after each pass.
    The kernel is symmetric, so the backward pass is the same correlation
    applied to the output gradient.  scipy itself is not imported (see the
    module docstring).
    """
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, got {size}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    k1 = gaussian_kernel_1d(size, sigma).astype(u.dtype).astype(np.float64)
    c = size // 2

    def correlate(data):
        h, w = data.shape[-2:]
        down = np.zeros(data.shape[:-2] + (h + 2 * c, w))
        down[..., c:c + h, :] = data
        across = np.zeros(data.shape[:-2] + (h, w + 2 * c))
        rows = _correlate_symmetric(down, k1, w)[..., c:c + h, :]
        across[..., c:c + w] = rows.astype(data.dtype, copy=False)
        return _correlate_symmetric(across, k1, 1)[..., c:c + w].astype(data.dtype)

    def grad_fn(g):
        u.accumulate_grad(correlate(g))

    return graph_node(correlate(u.data), (u,), grad_fn)


def head_calibration(f_hat: Tensor, heads: tuple, k: int, weight: Tensor, bias: Tensor,
                     delta: int, size: int, sigma: float):
    """Full HC pipeline with the local coarse head's `weight` and `bias`;
    returns (local coarse map, calibrated feature f* = f_hat * (1 + a)), with
    a the attention averaged over the classes."""
    maps = evaluate_heads(f_hat, heads, k, weight, bias)
    u = disagreement_map(maps, k)
    attention = gaussian_spread(nms2d(u, delta), size, sigma)
    return maps[:, k], gate(f_hat, attention.mean(axis=1, keepdims=True))

"""Functional layer ops on top of the tensor engine.

Each op takes its parameters as tensor arguments and owns none: the model
holds every parameter in one name table (`model.SegmentationModel.params`)
and passes the tensors in.  `gate` is the residual gating of both
calibrations: PCS's over the deepest feature's channels, HC's over pixels.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, graph_node

NORM_EPS = 1e-5


def instance_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize to zero mean / unit variance, scale by gamma, shift by beta,
    then apply relu, as one graph node (both callers follow the norm with a
    relu, and nothing else reads the pre-relu map).

    (B, C, H, W) inputs normalize each sample-channel plane over H*W;
    (B, C) inputs normalize each sample over its C entries.  The affine
    scale/shift is per channel in both cases.  The node keeps its output,
    the group means and the inverse deviations; backward recomputes
    x - mean from the input, which the graph holds as the node's parent.
    """
    d = x.data
    if d.ndim == 4:
        axes, group_dot, m = (2, 3), "bchw,bchw->bc", d.shape[2] * d.shape[3]
    elif d.ndim == 2:
        axes, group_dot, m = (1,), "bc,bc->b", d.shape[1]
    else:
        raise ValueError(f"instance_norm expects 2-D or 4-D input, got {d.ndim}-D")
    if m < 2:
        raise ValueError("normalization group has a single element; variance undefined")

    # reductions over the group axes work on any memory layout, so a
    # channel-major input is never copied into rows
    mean = d.mean(axis=axes, keepdims=True)
    xc = d - mean
    inv = 1.0 / np.sqrt(np.einsum(group_dot, xc, xc) / m + NORM_EPS)
    inv = inv.reshape(inv.shape + (1,) * len(axes))
    pshape = (1, -1) + (1,) * (d.ndim - 2)
    gk = gamma.data.reshape(pshape)
    scale = gk * inv
    out_data = xc * scale
    out_data += beta.data.reshape(pshape)
    np.maximum(out_data, 0, out=out_data)

    def grad_fn(g):
        g = g * (out_data > 0)   # through the relu
        xc = d - mean
        # with sg = sum(g') and sgx = sum(g' * x_c) over a group, g' = gamma * g,
        # dx = a*g + b*x_c + c for a = gamma/sigma, b = -sgx/(m sigma^3), c = -sg/(m sigma)
        if d.ndim == 4:
            # gamma is constant over a group: the sums of g itself also give
            # the gamma and beta gradients
            sg = g.sum(axis=axes, keepdims=True)
            sgx = np.einsum(group_dot, g, xc).reshape(sg.shape)
            gamma.accumulate_grad((sgx * inv).sum(axis=(0, 2, 3)))
            beta.accumulate_grad(sg.sum(axis=(0, 2, 3)))
            sg, sgx = gk * sg, gk * sgx
        else:
            # a 2-D group spans the channels, so gamma weights g inside it
            gamma.accumulate_grad((g * xc * inv).sum(axis=0))
            beta.accumulate_grad(g.sum(axis=0))
            gy = gk * g
            sg = gy.sum(axis=axes, keepdims=True)
            sgx = np.einsum(group_dot, gy, xc).reshape(sg.shape)
        dx = scale * g
        dx += (-inv ** 3 / m * sgx) * xc
        dx += -inv / m * sg
        x.accumulate_grad(dx)

    return graph_node(out_data, (x, gamma, beta), grad_fn)


# window positions in argmax order: ties go to the first
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def max_pool2x2(x: Tensor) -> Tensor:
    """2x downsample by max pooling; gradient routes to the argmax only.

    Built from the four strided views of the 2x2 windows.  Where several
    positions tie for the maximum, the gradient goes to the first of them in
    the order (0,0), (0,1), (1,0), (1,1).
    """
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"spatial dims must be even for 2x2 max pool, got {h}x{w}")
    views = [x.data[:, :, i::2, j::2] for i, j in _WINDOW]
    out_data = np.maximum(np.maximum(views[0], views[1]), np.maximum(views[2], views[3]))

    def grad_fn(g):
        dx = np.empty_like(x.data)
        free = np.ones(out_data.shape, dtype=bool)
        for (i, j), v in zip(_WINDOW, views):
            hit = free & (v == out_data)
            dx[:, :, i::2, j::2] = np.where(hit, g, 0)
            free &= ~hit
        x.accumulate_grad(dx)

    return graph_node(out_data, (x,), grad_fn)


def upsample_nearest2x(x: Tensor, skip: Tensor) -> Tensor:
    """The decoder's skip join: [skip, x upsampled 2x nearest-neighbor]
    along the channels, written straight into one buffer, so the upsampled
    map never exists on its own.  The gradient of x sums over each 2x2
    block; the skip's is its channels' slice of the output gradient."""
    b, cs, h, w = skip.shape
    if x.shape[0] != b or x.shape[2:] != (h // 2, w // 2) or h % 2 or w % 2:
        raise ValueError(f"skip {skip.shape} is not twice the size of {x.shape}")
    out_data = np.empty((b, cs + x.shape[1], h, w), dtype=np.result_type(skip.data, x.data))
    out_data[:, :cs] = skip.data
    up = out_data[:, cs:]
    for i, j in _WINDOW:
        up[:, :, i::2, j::2] = x.data

    def grad_fn(g):
        skip.accumulate_grad(g[:, :cs])
        g = g[:, cs:]
        gx = g[:, :, 0::2, 0::2] + g[:, :, 0::2, 1::2]
        gx += g[:, :, 1::2, 0::2]
        gx += g[:, :, 1::2, 1::2]
        x.accumulate_grad(gx)

    return graph_node(out_data, (skip, x), grad_fn)


def per_pixel_linear(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Apply the same linear map (C -> N) at every pixel of a (B, C, H, W) map.

    This is every 1x1 map of the model (the decoder's up-projections and the
    heads).  Like conv2d, it works on the (C, B*H*W) columns of the
    channel-major input, which for the maps the conv blocks produce are the
    input's own memory (any other layout costs one copy): one GEMM per pass
    over all images.  The (B, N, H, W) output and the input gradient are
    views of channel-major memory, as conv2d's are.  Gradients are computed
    only for the operands that track them.
    """
    b, c, h, w_sp = x.shape
    cin, n = w.shape
    if cin != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {cin}")
    x_cm = x.data.transpose(1, 0, 2, 3).reshape(c, -1)
    out_cm = w.data.T @ x_cm
    out_cm += bias.data[:, None]

    def grad_fn(g):
        g_cm = g.transpose(1, 0, 2, 3).reshape(n, -1)
        if w.requires_grad:
            w.accumulate_grad(x_cm @ g_cm.T)
        if bias.requires_grad:
            bias.accumulate_grad(g_cm.sum(axis=1))
        if x.requires_grad:
            x.accumulate_grad((w.data @ g_cm).reshape(c, b, h, w_sp).transpose(1, 0, 2, 3))

    return graph_node(out_cm.reshape(n, b, h, w_sp).transpose(1, 0, 2, 3), (x, w, bias), grad_fn)


def gate(f: Tensor, s: Tensor) -> Tensor:
    """Residual gating f * s + f = f * (1 + s), with `s` broadcast over `f`:
    PCS's (B, C, 1, 1) channel gate and HC's (B, 1, H, W) attention.  One
    graph node, so the product f * s is never kept; f's gradient gains g,
    then g * s, and s's gains g * f summed back to its own shape."""
    # shapes that do not broadcast at all raise numpy's ValueError, naming both
    if np.broadcast_shapes(f.shape, s.shape) != f.shape:
        raise ValueError(f"gate {s.shape} would grow feature {f.shape}")
    out_data = f.data * s.data
    out_data += f.data

    def grad_fn(g):
        f.accumulate_grad(g)
        f.accumulate_grad(g * s.data)
        s.accumulate_grad(g * f.data)

    return graph_node(out_data, (f, s), grad_fn)

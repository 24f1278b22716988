"""Composable layers on top of the tensor engine.

A layer owns named parameter tensors.  It does not decide how federation
treats them: the model prefixes each name with the layer's place in the
network, and a mode's row in `config.MODES` picks the local parameters by
those full names.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, conv2d, graph_node, relu


# ---------------------------------------------------------------------------
# functional ops
# ---------------------------------------------------------------------------

def instance_norm(x: Tensor, gamma: Tensor | None = None, beta: Tensor | None = None,
                  eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean / unit variance, optionally with affine params.

    (B, C, H, W) inputs normalize each sample-channel plane over H*W;
    (B, C) inputs normalize each sample over its C entries.  The affine
    scale/shift, when given, is per channel in both cases.
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
    xc = d - d.mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(np.einsum(group_dot, xc, xc) / m + eps)
    inv = inv.reshape(inv.shape + (1,) * len(axes))
    if gamma is None:
        scale = inv
        out_data = xc * scale
    else:
        pshape = (1, -1) if d.ndim == 2 else (1, -1, 1, 1)
        gk = gamma.data.reshape(pshape)
        scale = gk * inv
        out_data = xc * scale
        out_data += beta.data.reshape(pshape)

    def grad_fn(g):
        # with sg = sum(g') and sgx = sum(g' * x_c) over a group, g' = gamma * g,
        # dx = a*g + b*x_c + c for a = gamma/sigma, b = -sgx/(m sigma^3), c = -sg/(m sigma)
        if d.ndim == 4:
            # gamma is constant over a group: the sums of g itself also give
            # the gamma and beta gradients
            sg = g.sum(axis=axes, keepdims=True)
            sgx = np.einsum(group_dot, g, xc).reshape(sg.shape)
            if gamma is not None:
                gamma.accumulate_grad((sgx * inv).sum(axis=(0, 2, 3)))
                beta.accumulate_grad(sg.sum(axis=(0, 2, 3)))
                sg, sgx = gk * sg, gk * sgx
        else:
            # a 2-D group spans the channels, so gamma weights g inside it
            if gamma is not None:
                gamma.accumulate_grad((g * xc * inv).sum(axis=0))
                beta.accumulate_grad(g.sum(axis=0))
            gy = g if gamma is None else gk * g
            sg = gy.sum(axis=axes, keepdims=True)
            sgx = np.einsum(group_dot, gy, xc).reshape(sg.shape)
        dx = scale * g
        dx += (-inv ** 3 / m * sgx) * xc
        dx += -inv / m * sg
        x.accumulate_grad(dx)

    parents = (x,) if gamma is None else (x, gamma, beta)
    return graph_node(out_data, parents, grad_fn)


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


def upsample_nearest2x(x: Tensor) -> Tensor:
    """2x nearest-neighbor upsampling; gradient sums over each 2x2 block."""
    out_data = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

    def grad_fn(g):
        gx = g[:, :, 0::2, 0::2] + g[:, :, 0::2, 1::2]
        gx += g[:, :, 1::2, 0::2]
        gx += g[:, :, 1::2, 1::2]
        x.accumulate_grad(gx)

    return graph_node(out_data, (x,), grad_fn)


def per_pixel_linear(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Apply the same linear map (C -> N) at every pixel of a (B, C, H, W) map.

    Equivalent to a 1x1 convolution but cheaper: one batched GEMM.  Gradients
    are computed only for the operands that track them, so a constant head
    costs one GEMM in backward.
    """
    b, c, h, w_sp = x.shape
    cin, n = w.shape
    if cin != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {cin}")
    xr = x.data.reshape(b, c, h * w_sp)
    out_data = (np.matmul(w.data.T[None], xr) + bias.data[None, :, None]).reshape(b, n, h, w_sp)

    def grad_fn(g):
        g2 = g.reshape(b, n, h * w_sp)
        if w.requires_grad:
            w.accumulate_grad(np.matmul(xr, g2.transpose(0, 2, 1)).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate_grad(g2.sum(axis=(0, 2)))
        if x.requires_grad:
            x.accumulate_grad(np.matmul(w.data[None], g2).reshape(x.shape))

    return graph_node(out_data, (x, w, bias), grad_fn)


# ---------------------------------------------------------------------------
# parameter-carrying layers
# ---------------------------------------------------------------------------

class Layer:
    """Base for layers owning named parameters."""

    def __init__(self):
        self._params: list[tuple[str, Tensor]] = []

    def _register(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data, requires_grad=True)
        self._params.append((name, t))
        return t

    def parameters(self):
        return list(self._params)


def _conv_kernels(cin: int, cout: int, k: int, rng: np.random.Generator, dtype) -> np.ndarray:
    std = np.sqrt(2.0 / (cin * k * k))
    return (rng.standard_normal((cout, cin, k, k)) * std).astype(dtype)


class Conv2d(Layer):
    def __init__(self, cin: int, cout: int, k: int, rng: np.random.Generator, dtype=np.float64):
        super().__init__()
        self.weight = self._register("w", _conv_kernels(cin, cout, k, rng, dtype))
        self.bias = self._register("b", np.zeros(cout, dtype=dtype))

    def __call__(self, x: Tensor, stride: int = 1) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=stride)


class Linear(Layer):
    def __init__(self, cin: int, cout: int, rng: np.random.Generator, dtype=np.float64):
        super().__init__()
        std = np.sqrt(2.0 / cin)
        self.weight = self._register("w", (rng.standard_normal((cin, cout)) * std).astype(dtype))
        self.bias = self._register("b", np.zeros(cout, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        from .tensor import linear
        return linear(x, self.weight, self.bias)


class InstanceNorm(Layer):
    def __init__(self, channels: int, dtype=np.float64, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = self._register("g", np.ones(channels, dtype=dtype))
        self.beta = self._register("o", np.zeros(channels, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return instance_norm(x, self.gamma, self.beta, eps=self.eps)


class PerPixelLinear(Layer):
    def __init__(self, cin: int, n: int, rng: np.random.Generator, dtype=np.float64):
        super().__init__()
        std = np.sqrt(1.0 / cin)
        self.weight = self._register("w", (rng.standard_normal((cin, n)) * std).astype(dtype))
        self.bias = self._register("b", np.zeros(n, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return per_pixel_linear(x, self.weight, self.bias)


class ConvBlock(Layer):
    """conv3x3 -> instance norm -> relu.

    The convolution has no bias: the norm subtracts each channel's mean, so a
    bias would cancel in the forward pass and get an exactly-zero gradient.
    """

    def __init__(self, cin: int, cout: int, rng: np.random.Generator, dtype=np.float64):
        super().__init__()
        self.weight = self._register("conv.w", _conv_kernels(cin, cout, 3, rng, dtype))
        self.norm = InstanceNorm(cout, dtype)
        for name, t in self.norm.parameters():
            self._params.append((f"norm.{name}", t))

    def __call__(self, x: Tensor) -> Tensor:
        return relu(self.norm(conv2d(x, self.weight)))

"""Minimal dense tensor with reverse-mode automatic differentiation.

Every value flowing through the model (features, embeddings, segmentation
maps, losses) is a ``Tensor`` wrapping a numpy array.  Ops that take part in
gradient computation record their inputs and a closure that pushes the output
gradient back to them; ``backward()`` on a scalar replays those closures once
each in reverse topological order, releasing every node as soon as its closure
has run.

Conventions:
  * gradients accumulate (+=) into ``.grad``; call ``zero_grad()`` between
    optimizer steps.  An intermediate's first gradient is stored as a copy,
    not added to a zero buffer,
  * constants (tensors that neither require a gradient nor come out of a
    tracked op) receive no gradient: their ``.grad`` stays None and ops skip
    computing it,
  * the graph frees itself during backward: a node's saved arrays, and its
    gradient unless the caller still holds the tensor, go as soon as its
    closure has run,
  * op results and the gradients ops pass back may be non-contiguous views
    (conv2d returns channel-major memory); ops must accept any layout,
  * conv2d is cross-correlation (no kernel flip),
  * dtype follows the input arrays; tests run in float64, training may run
    in float32.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "graph_node",
    "stop_gradient",
    "relu",
    "sigmoid",
    "concat",
    "global_average_pool",
    "matmul",
    "linear",
    "conv2d",
]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """N-dimensional real array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._parents = ()
        self._grad_fn = None
        self._consumed = False

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0
        elif self.requires_grad:
            self.grad = np.zeros_like(self.data)

    def accumulate_grad(self, g: np.ndarray):
        if not self.requires_grad:
            return  # a constant: graph_node marks every tensor with tracked parents
        g = _unbroadcast(np.asarray(g), self.data.shape)
        if self.grad is None:
            self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=self.data.dtype)
        else:
            self.grad += g

    # -- autodiff ------------------------------------------------------------

    def backward(self):
        """Propagate gradients from this scalar to every ancestor.

        Each node is released from the graph as soon as its closure has run,
        so saved arrays and intermediate gradients are freed during the pass;
        a second backward from the same root raises.
        """
        if self.data.size != 1:
            raise ValueError(f"backward root must be scalar, got shape {self.data.shape}")
        if self._consumed:
            raise RuntimeError("backward already ran for this root; rebuild the graph")

        topo: list[Tensor] = []
        visited = {id(self)}
        stack: list[tuple[Tensor, int]] = [(self, 0)]
        while stack:
            node, idx = stack.pop()
            if idx < len(node._parents):
                stack.append((node, idx + 1))
                child = node._parents[idx]
                if id(child) not in visited:
                    visited.add(id(child))
                    stack.append((child, 0))
            else:
                topo.append(node)

        self.accumulate_grad(np.ones_like(self.data))
        self._consumed = True
        while topo:
            node = topo.pop()
            if node._grad_fn is not None:
                node._grad_fn(node.grad)
            # cut the node loose: its closure's saved arrays, and its gradient
            # unless the caller holds the tensor, are freed right here
            node._parents = ()
            node._grad_fn = None

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data

        def grad_fn(g):
            self.accumulate_grad(g)
            other.accumulate_grad(g)

        return graph_node(out_data, (self, other), grad_fn)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        out_data = self.data - other.data

        def grad_fn(g):
            self.accumulate_grad(g)
            other.accumulate_grad(-g)

        return graph_node(out_data, (self, other), grad_fn)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data

        def grad_fn(g):
            self.accumulate_grad(g * other.data)
            other.accumulate_grad(g * self.data)

        return graph_node(out_data, (self, other), grad_fn)

    __rmul__ = __mul__

    def __neg__(self):
        def grad_fn(g):
            self.accumulate_grad(-g)

        return graph_node(-self.data, (self,), grad_fn)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src_shape = self.data.shape
        out_data = self.data.reshape(shape)

        def grad_fn(g):
            self.accumulate_grad(g.reshape(src_shape))

        return graph_node(out_data, (self,), grad_fn)

    def __getitem__(self, index):
        """Basic indexing (ints, slices, None, Ellipsis); the result is a view."""
        parts = index if isinstance(index, tuple) else (index,)
        for p in parts:
            basic = p is None or p is Ellipsis or isinstance(p, (int, np.integer, slice))
            if not basic or isinstance(p, bool):
                raise TypeError(f"only basic indexing is differentiable, got {type(p).__name__}")
        out_data = self.data[index]

        def grad_fn(g):
            # basic indexing selects each element at most once: scatter, no adds
            full = np.zeros_like(self.data)
            full[index] = g
            self.accumulate_grad(full)

        return graph_node(out_data, (self,), grad_fn)

    def __truediv__(self, other):
        other = self._coerce(other)
        out_data = self.data / other.data

        def grad_fn(g):
            self.accumulate_grad(g / other.data)
            other.accumulate_grad(-g * out_data / other.data)

        return graph_node(out_data, (self, other), grad_fn)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None):
        if axis is None:
            def grad_fn(g):
                self.accumulate_grad(np.full_like(self.data, float(g)))

            return graph_node(np.asarray(self.data.sum(), dtype=self.data.dtype), (self,), grad_fn)

        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        out_data = self.data.sum(axis=axes)
        keep_shape = tuple(1 if a in axes or a - self.data.ndim in axes else s
                           for a, s in enumerate(self.data.shape))

        def grad_fn(g):
            self.accumulate_grad(np.broadcast_to(g.reshape(keep_shape), self.data.shape))

        return graph_node(out_data, (self,), grad_fn)

    def mean(self, axis=None):
        if axis is None:
            n = self.data.size

            def grad_fn(g):
                self.accumulate_grad(np.full_like(self.data, float(g) / n))

            return graph_node(np.asarray(self.data.mean(), dtype=self.data.dtype), (self,), grad_fn)

        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        scale = 1.0
        for a in axes:
            scale *= self.data.shape[a]
        return self.sum(axis=axes) * (1.0 / scale)

    def abs(self):
        sign = np.sign(self.data)

        def grad_fn(g):
            self.accumulate_grad(g * sign)

        return graph_node(np.abs(self.data), (self,), grad_fn)


def graph_node(data: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    """Create a tensor from an op result, wiring it into the graph when any
    parent tracks gradients."""
    out = Tensor(data)
    if any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = True
        out.grad = None  # allocated lazily during backward
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


def stop_gradient(x: Tensor) -> Tensor:
    """Identity on values, zero map on gradients: detaches x from the graph."""
    return Tensor(x.data)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0)

    def grad_fn(g):
        x.accumulate_grad(g * (out_data > 0))

    return graph_node(out_data, (x,), grad_fn)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out_data = np.empty_like(d)
    pos = d >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out_data[~pos] = e / (1.0 + e)
    # keep the output in the open interval even where exp saturates
    one = d.dtype.type(1)
    np.clip(out_data, np.nextafter(d.dtype.type(0), one), np.nextafter(one, 0), out=out_data)

    def grad_fn(g):
        x.accumulate_grad(g * out_data * (1.0 - out_data))

    return graph_node(out_data, (x,), grad_fn)


def concat(tensors: list, axis: int = 1) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t.accumulate_grad(piece)

    return graph_node(out_data, tuple(tensors), grad_fn)


def global_average_pool(x: Tensor) -> Tensor:
    """Per-channel spatial mean: (B, C, H, W) -> (B, C)."""
    if x.ndim != 4:
        raise ValueError(f"expected B x C x H x W input, got shape {x.shape}")
    _, _, h, w = x.shape
    out_data = x.data.mean(axis=(2, 3))

    def grad_fn(g):
        x.accumulate_grad(np.broadcast_to(g[:, :, None, None], x.shape) / (h * w))

    return graph_node(out_data, (x,), grad_fn)


def matmul(x: Tensor, w: Tensor) -> Tensor:
    if x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(f"matmul inner dims differ: {x.shape} vs {w.shape}")
    out_data = x.data @ w.data

    def grad_fn(g):
        x.accumulate_grad(g @ w.data.T)
        w.accumulate_grad(x.data.T @ g)

    return graph_node(out_data, (x, w), grad_fn)


def linear(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """y = x W + bias for x: (B, Cin), w: (Cin, Cout), bias: (Cout,)."""
    return matmul(x, w) + bias


def _pad(a: np.ndarray, lo: int, size: tuple, stride: int = 1) -> np.ndarray:
    """Zero (C, B, *size) buffer holding a[c, b, i, j] at [c, b, lo + i*stride,
    lo + j*stride]: padding and zero-dilation in one copy; `a` itself when
    there is neither."""
    c, b, h, w = a.shape
    if lo == 0 and stride == 1 and size == (h, w):
        return a
    out = np.zeros((c, b) + size, dtype=a.dtype)
    out[:, :, lo:lo + stride * (h - 1) + 1:stride, lo:lo + stride * (w - 1) + 1:stride] = a
    return out


def _im2col(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """(C, B, Hp, Wp) -> (C*k*k, B*ho*wo) columns; row c*k*k + di*k + dj
    holds xp[c, :, i*stride + di, j*stride + dj] for every output (i, j).

    One copy out of a strided window view; none when that view is already
    contiguous (a 1x1, stride-1 kernel on a contiguous input).
    """
    c, b = xp.shape[:2]
    sc, sb, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (c, k, k, b, ho, wo), (sc, sh, sw, sb, sh * stride, sw * stride), writeable=False)
    return np.ascontiguousarray(windows).reshape(c * k * k, b * ho * wo)


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int | None = None) -> Tensor:
    """Cross-correlation of (B, Cin, H, W) with (Cout, Cin, k, k) kernels.

    Default padding k//2 preserves spatial size at stride 1; padding must lie
    in [0, k-1].  The batch is folded into the columns of one
    (Cin*k*k, B*Ho*Wo) im2col buffer that lives only for the forward GEMM;
    the result is a (B, Cout, Ho, Wo) view of channel-major memory.  The
    input gradient is one more GEMM: the correlation of the zero-dilated,
    padded output gradient with the flipped, channel-transposed kernels.
    The kernel gradient is one GEMM of those same gradient columns with the
    input; only a constant input has its own columns rebuilt for it.
    Gradients are computed only for the operands that track them.
    """
    b, cin, h, w = x.shape
    cout, kc, kh, kw = kernels.shape
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"kernel must be square with odd size, got {kh}x{kw}")
    if kc != cin:
        raise ValueError(f"channel mismatch: input has {cin}, kernels expect {kc}")
    k = kh
    pad = k // 2 if padding is None else padding
    if not 0 <= pad < k:
        raise ValueError(f"padding must lie in [0, {k - 1}], got {pad}")
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1

    x_cm = x.data.transpose(1, 0, 2, 3)
    cols = _im2col(_pad(x_cm, pad, (h + 2 * pad, w + 2 * pad)), k, stride, ho, wo)
    out_cm = kernels.data.reshape(cout, cin * k * k) @ cols
    if bias is not None:
        out_cm += bias.data[:, None]

    def grad_fn(g):
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)))
        gt = g.transpose(1, 0, 2, 3)
        if x.requires_grad:
            # dx[c, y] = sum_{o, d} g[o, (y + pad - d) / stride] * K[o, c, d]: the
            # output gradient dilated by stride and padded by k-1-pad on the low
            # side, correlated with the kernels flipped and Cin/Cout-swapped.
            gcols = _im2col(_pad(gt, k - 1 - pad, (h + k - 1, w + k - 1), stride), k, 1, h, w)
            if kernels.requires_grad:
                # row (o, k-1-dy, k-1-dx) of gcols holds g where it meets
                # x[c, y] through tap (dy, dx), so one GEMM and a flip give dW
                dw = (gcols @ x_cm.reshape(cin, -1).T).reshape(cout, k, k, cin)
                kernels.accumulate_grad(dw[:, ::-1, ::-1].transpose(0, 3, 1, 2))
            flipped = kernels.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, cout * k * k)
            x.accumulate_grad((flipped @ gcols).reshape(cin, b, h, w).transpose(1, 0, 2, 3))
        elif kernels.requires_grad:
            # a constant input builds no gcols; rebuild its (cheaper) columns
            cols = _im2col(_pad(x_cm, pad, (h + 2 * pad, w + 2 * pad)), k, stride, ho, wo)
            kernels.accumulate_grad((gt.reshape(cout, -1) @ cols.T).reshape(kernels.shape))

    parents = (x, kernels) if bias is None else (x, kernels, bias)
    return graph_node(out_cm.reshape(cout, b, ho, wo).transpose(1, 0, 2, 3), parents, grad_fn)

"""Minimal dense tensor with reverse-mode automatic differentiation.

Every value flowing through the model (features, embeddings, segmentation
maps, losses) is a ``Tensor`` wrapping a numpy array.  Ops that take part in
gradient computation record their inputs and a closure that pushes the output
gradient back to them; ``backward()`` on a scalar replays those closures once
each in reverse topological order, releasing every node as soon as its closure
has run.

Conventions:
  * nothing writes into an array once it is handed over: ``.grad`` is None
    until a gradient arrives; the first is kept as the op handed it over
    (maybe a read-only broadcast or a view another tensor shares), a later
    one binds a new sum, so setting it to None releases it
    (``Adam.zero_grad`` does, between steps); ``Adam.step`` likewise binds a
    parameter's ``.data`` and its moments to new arrays, so a tensor may wrap
    another owner's array (a federation state's) without a copy,
  * constants (tensors that neither require a gradient nor come out of a
    tracked op) receive no gradient: their ``.grad`` stays None and ops skip
    computing it,
  * the graph frees itself during backward: a node's saved arrays, and its
    gradient unless the caller still holds the tensor, go as soon as its
    closure has run,
  * a closure keeps only the arrays its backward reads, recomputing what it
    can from a parent (which the graph holds anyway); an op whose output
    only the next op reads is one node with that op, since a separate node
    would keep that output alive as the next node's parent
    (``layers.instance_norm`` ends in its relu, ``layers.upsample_nearest2x``
    writes the decoder's skip join, ``layers.gate`` is PCS's and HC's
    residual gating in one node),
  * the reductions are ``sum`` and ``mean`` over any axes (None, an int or
    a tuple, with or without ``keepdims``), one graph node whose forward is
    numpy's own ``sum``/``mean``: a feature's spatial mean is
    ``f.mean(axis=(2, 3))``,
  * op results and the gradients ops pass back may be non-contiguous views
    (conv2d returns channel-major memory); ops must accept any layout,
  * conv2d is a same-padded (k // 2), stride-1 cross-correlation (no kernel
    flip, no bias), so its output has its input's spatial size; the model
    calls it only for its 3x3 blocks (every 1x1 map is a
    ``layers.per_pixel_linear``).  It builds its im2col columns one
    cache-sized tile at a time (``TILE_BYTES``); its output and input
    gradient are bit-identical for any tiling, while its kernel gradient
    sums per-tile parts, so its last bits depend on the tiling,
  * dtype follows the input arrays; tests run in float64, training may run
    in float32.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "graph_node",
    "stop_gradient",
    "sigmoid",
    "concat",
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
        self.grad = None
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

    def accumulate_grad(self, g: np.ndarray):
        if not self.requires_grad:
            return  # a constant: graph_node marks every tensor with tracked parents
        g = _unbroadcast(np.asarray(g), self.data.shape)
        self.grad = g if self.grad is None else self.grad + g

    # -- autodiff ------------------------------------------------------------

    def backward(self):
        """Propagate gradients from this scalar to every ancestor, each adding
        to what its ``.grad`` holds from earlier passes, never in place.

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

    def __sub__(self, other):
        return self + -self._coerce(other)  # a - b == a + (-b) exactly in IEEE arithmetic

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data

        def grad_fn(g):
            self.accumulate_grad(g * other.data)
            other.accumulate_grad(g * self.data)

        return graph_node(out_data, (self, other), grad_fn)

    def __neg__(self):
        def grad_fn(g):
            self.accumulate_grad(-g)

        return graph_node(-self.data, (self,), grad_fn)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
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

    def sum(self, axis=None, keepdims=False):
        return self._reduce(np.sum, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return self._reduce(np.mean, axis, keepdims)

    def _reduce(self, op, axis, keepdims):
        """numpy's `op` (np.sum or np.mean) over `axis` (None, an int or a
        tuple of ints); the gradient broadcasts back over the reduced axes,
        divided by their element count for a mean."""
        kept = op(self.data, axis=axis, keepdims=True)
        keep_shape, count = kept.shape, self.data.size // kept.size

        def grad_fn(g):
            g = np.reshape(g, keep_shape)
            g = g / count if op is np.mean else g
            self.accumulate_grad(np.broadcast_to(g, self.data.shape))

        return graph_node(kept if keepdims else kept.squeeze(axis), (self,), grad_fn)

    def abs(self):
        sign = np.sign(self.data)

        def grad_fn(g):
            self.accumulate_grad(g * sign)

        return graph_node(np.abs(self.data), (self,), grad_fn)


def graph_node(data: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    """Create a tensor from an op result, wiring it into the graph when any
    parent tracks gradients."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


def stop_gradient(x: Tensor) -> Tensor:
    """Identity on values, zero map on gradients: detaches x from the graph."""
    return Tensor(x.data)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    # 1 / (1 + e^-d) for d >= 0 and e^d / (1 + e^d) below: exp never overflows;
    # min(d, -d) is -|d| that keeps a NaN's sign, so NaN passes through as is
    e = np.exp(np.minimum(d, -d))
    out_data = np.where(d >= 0, 1, e)
    out_data /= 1 + e
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


def linear(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """y = x W + bias for x: (B, Cin), w: (Cin, Cout), bias: (Cout,)."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(f"linear inner dims differ: {x.shape} vs {w.shape}")
    out_data = x.data @ w.data + bias.data

    def grad_fn(g):
        x.accumulate_grad(g @ w.data.T)
        w.accumulate_grad(x.data.T @ g)
        bias.accumulate_grad(g.sum(axis=0))

    return graph_node(out_data, (x, w, bias), grad_fn)


def _pad(a: np.ndarray, lo: int) -> np.ndarray:
    """Zero (C, B, H + 2*lo, W + 2*lo) buffer holding a[c, b, i, j] at
    [c, b, lo + i, lo + j]."""
    c, b, h, w = a.shape
    out = np.zeros((c, b, h + 2 * lo, w + 2 * lo), dtype=a.dtype)
    out[:, :, lo:lo + h, lo:lo + w] = a
    return out


# Target size in bytes of one tile of im2col columns.  conv2d builds and uses
# its columns one tile at a time, so each GEMM reads a tile that the copy has
# just written and that is still in the core's L2 cache (2 MB on the Xeon this
# was tuned on), not a whole buffer from memory (28 MB for 16 channels at
# 64 px, batch 6).  Sweep over the nine 3x3 convs of the lcfed-desk U-Net
# (B = 6, float64, 1 BLAS thread), forward + backward time against one tile
# per conv: 128 KB 0.86, 192 KB 0.84, 256 KB 0.79, 320 KB 0.80, 384 KB 0.80,
# 512 KB 0.82; the lcfed-k8-small convs took 0.86 at 256 KB.
TILE_BYTES = 256 << 10


def _im2col_tiles(xp: np.ndarray, k: int):
    """Yield (images, rows, columns) for each tile of the (B, ho) output rows
    of a k x k window sliding at stride 1 over the padded (C, B, H, W) `xp`,
    in memory order; ho = H - k + 1 and wo = W - k + 1.  `columns` is the
    (C*k*k, n) im2col matrix of output rows `rows` of images `images`: row
    c*k*k + di*k + dj holds xp[c, b, i + di, j + dj] for every output (b, i, j)
    of the tile.  Each is one copy out of a strided window view.

    A tile targets TILE_BYTES of columns, or C*k*k columns if that is more
    (each tile's GEMM repacks the weights, which have at most C*k*k rows).
    The target rounded down to whole images, if it holds one, or else to
    whole rows of one image (at least one) makes a unit; a conv has as many
    tiles as its columns fill units, rounded down, and they differ by at most
    one image or row.  So a tile holds one to two units, and a conv whose
    columns fill fewer than two units runs as one tile.
    """
    c, b, h, w = xp.shape
    ho, wo = h - k + 1, w - k + 1
    sc, sb, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (c, k, k, b, ho, wo), (sc, sh, sw, sb, sh, sw), writeable=False)
    rows_k = c * k * k
    per_tile = max(1, max(TILE_BYTES // (rows_k * xp.itemsize), rows_k) // wo)
    if per_tile >= ho:
        groups = max(1, b // (per_tile // ho))
        tiles = [(slice(i * b // groups, (i + 1) * b // groups), slice(0, ho))
                 for i in range(groups)]
    else:
        bands = ho // per_tile
        tiles = [(slice(i, i + 1), slice(r * ho // bands, (r + 1) * ho // bands))
                 for i in range(b) for r in range(bands)]
    for images, rows in tiles:
        yield images, rows, np.ascontiguousarray(windows[:, :, :, images, rows]).reshape(rows_k, -1)


def conv2d(x: Tensor, kernels: Tensor) -> Tensor:
    """Same-padded, stride-1 cross-correlation of (B, Cin, H, W) with
    (Cout, Cin, k, k) kernels, without bias (an instance norm follows every
    conv of the model): the input is zero-padded by k//2 on each side, so the
    output is (B, Cout, H, W).  Any odd k is accepted; the model uses k = 3.

    The batch is folded into the columns of a (Cin*k*k, B*H*W) im2col matrix
    that is built and used one tile of output rows at a time
    (`_im2col_tiles`): one GEMM per tile writes its slice of a channel-major
    (Cout, B, H, W) array, and the result is a (B, Cout, H, W) view of it.
    The input gradient tiles the input rows the same way: per tile, one GEMM
    of the flipped, channel-transposed kernels with the columns of the output
    gradient, padded by k//2 just as the input was.  The kernel gradient sums
    one GEMM per tile of those same gradient columns with the input; only a
    constant input has its own columns rebuilt for it, tile by tile.  A conv
    whose columns fit in one tile runs one copy and one GEMM per pass.

    Splitting a GEMM's columns reorders no sum, so the output and the input
    gradient are bit-identical to a one-tile build; the kernel gradient adds
    the tiles' partial sums, so its rounding depends on the tiling.
    Gradients are computed only for the operands that track them.
    """
    b, cin, h, w = x.shape
    cout, kc, kh, kw = kernels.shape
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"kernel must be square with odd size, got {kh}x{kw}")
    if kc != cin:
        raise ValueError(f"channel mismatch: input has {cin}, kernels expect {kc}")
    k = kh
    pad = k // 2
    dtype = np.result_type(x.data, kernels.data)

    x_cm = x.data.transpose(1, 0, 2, 3)
    w2d = kernels.data.reshape(cout, cin * k * k)
    out_cm = np.empty((cout, b, h, w), dtype=dtype)
    for images, rows, cols in _im2col_tiles(_pad(x_cm, pad), k):
        np.matmul(w2d, cols, out=out_cm[:, images, rows].reshape(cout, -1))

    def grad_fn(g):
        gt = g.transpose(1, 0, 2, 3)
        dw = None
        if x.requires_grad:
            # dx[c, y] = sum_{o, d} g[o, y + pad - d] * K[o, c, d]: the output
            # gradient padded by k-1-pad == pad, correlated with the kernels
            # flipped and Cin/Cout-swapped
            flipped = kernels.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, cout * k * k)
            dx_cm = np.empty((cin, b, h, w), dtype=dtype)
            for images, rows, gcols in _im2col_tiles(_pad(gt, pad), k):
                if kernels.requires_grad:
                    # row (o, k-1-dy, k-1-dx) of gcols holds g where it meets
                    # x[c, y] through tap (dy, dx), so a GEMM per tile and a
                    # flip give dW
                    part = gcols @ x_cm[:, images, rows].reshape(cin, -1).T
                    dw = part if dw is None else dw + part
                np.matmul(flipped, gcols, out=dx_cm[:, images, rows].reshape(cin, -1))
            x.accumulate_grad(dx_cm.transpose(1, 0, 2, 3))
            if kernels.requires_grad:
                kernels.accumulate_grad(
                    dw.reshape(cout, k, k, cin)[:, ::-1, ::-1].transpose(0, 3, 1, 2))
        elif kernels.requires_grad:
            # a constant input builds no gcols; rebuild its (cheaper) columns
            for images, rows, cols in _im2col_tiles(_pad(x_cm, pad), k):
                part = gt[:, images, rows].reshape(cout, -1) @ cols.T
                dw = part if dw is None else dw + part
            kernels.accumulate_grad(dw.reshape(kernels.shape))

    return graph_node(out_cm.transpose(1, 0, 2, 3), (x, kernels), grad_fn)

import numpy as np
import pytest

from lcfed import tensor as T
from lcfed.tensor import Tensor, concat, graph_node, sigmoid
from lcfed.layers import (
    NORM_EPS, gate, instance_norm, max_pool2x2, per_pixel_linear, upsample_nearest2x,
)
from lcfed.model import SegmentationModel, decode, encode, head

from gradcheck import assert_grads_close

TINY = dict(channels=(2, 3, 4), classes=1)   # 8 px inputs

# the TINY model's parameter table in order, generator included
TINY_NAMES = [
    "enc0.conv.w", "enc0.norm.g", "enc0.norm.o",
    "enc1.conv.w", "enc1.norm.g", "enc1.norm.o",
    "enc2.conv.w", "enc2.norm.g", "enc2.norm.o",
    "up0.w", "up0.b", "dec0.conv.w", "dec0.norm.g", "dec0.norm.o",
    "up1.w", "up1.b", "dec1.conv.w", "dec1.norm.g", "dec1.norm.o",
    "pcsgen.fc1.w", "pcsgen.fc1.b", "pcsgen.norm.g", "pcsgen.norm.o",
    "pcsgen.fc2.w", "pcsgen.fc2.b", "pcsgen.fuse.w", "pcsgen.fuse.b",
    "head_coarse.w", "head_coarse.b", "head_calib.w", "head_calib.b",
]


def max_pool_grad_loop(x, g):
    """Brute-force max-pool gradient: each window's gradient goes to its first
    maximal entry in the order (0,0), (0,1), (1,0), (1,1)."""
    dx = np.zeros_like(x)
    b, c, h2, w2 = g.shape
    for bi in range(b):
        for ci in range(c):
            for i in range(h2):
                for j in range(w2):
                    window = [(2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)]
                    best = max(x[bi, ci, y, z] for y, z in window)
                    y, z = next(p for p in window if x[bi, ci, p[0], p[1]] == best)
                    dx[bi, ci, y, z] = g[bi, ci, i, j]
    return dx


class TestInstanceNorm:
    def test_constant_input_with_affine_gives_zeros(self):
        x = Tensor(np.full((2, 3, 4, 4), 7.0))
        out = instance_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_normalization_statistics(self):
        # negating x negates the normalized map z exactly, and
        # relu(z) - relu(-z) == z, so the difference shows the pre-relu map
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 8, 4, 4))
        gamma, beta = Tensor(np.ones(8)), Tensor(np.zeros(8))
        out = instance_norm(Tensor(x), gamma, beta).data
        assert out.min() == 0.0
        z = out - instance_norm(Tensor(-x), gamma, beta).data
        assert np.all(np.abs(z.mean(axis=(2, 3))) < 1e-6)
        assert np.all(np.abs(z.var(axis=(2, 3)) - 1.0) < 1e-4)

    def test_vector_form_backward_matches_fd(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4))
        g = rng.standard_normal(4)
        b = rng.standard_normal(4)
        tx, tg, tb = (Tensor(a, requires_grad=True) for a in (x, g, b))
        out = instance_norm(tx, tg, tb)
        (out * out).sum().backward()

        def f(x_, g_, b_):
            mu = x_.mean(axis=1, keepdims=True)
            sd = np.sqrt(x_.var(axis=1, keepdims=True) + 1e-5)
            o = np.maximum((x_ - mu) / sd * g_ + b_, 0)
            return float((o * o).sum())

        assert_grads_close(f, [x, g, b], [tx.grad, tg.grad, tb.grad])

    def test_spatial_form_backward_matches_fd(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 2, 3, 3))
        gam, bet = rng.standard_normal(2), rng.standard_normal(2)
        tx, tg, tb = (Tensor(a, requires_grad=True) for a in (x, gam, bet))
        out = instance_norm(tx, tg, tb)
        (out * out * 0.5).sum().backward()

        def f(x_, g_, b_):
            mu = x_.mean(axis=(2, 3), keepdims=True)
            sd = np.sqrt(x_.var(axis=(2, 3), keepdims=True) + 1e-5)
            o = (x_ - mu) / sd * g_[None, :, None, None] + b_[None, :, None, None]
            o = np.maximum(o, 0)
            return float((o * o * 0.5).sum())

        assert_grads_close(f, [x, gam, bet], [tx.grad, tg.grad, tb.grad])

    def test_channel_major_input_backward_matches_fd(self):
        # the layout conv2d returns: a (B, C, H, W) view of (C, B, H, W) memory
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 3, 4))
        view = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        gam, bet = rng.standard_normal(3), rng.standard_normal(3)
        w = rng.standard_normal(x.shape)
        tx = Tensor(view, requires_grad=True)
        tg, tb = Tensor(gam, requires_grad=True), Tensor(bet, requires_grad=True)
        out = instance_norm(tx, tg, tb)
        (out * out * Tensor(w)).sum().backward()

        def f(x_, g_, b_):
            mu = x_.mean(axis=(2, 3), keepdims=True)
            o = (x_ - mu) / np.sqrt(x_.var(axis=(2, 3), keepdims=True) + 1e-5)
            o = np.maximum(o * g_[None, :, None, None] + b_[None, :, None, None], 0)
            return float((o * o * w).sum())

        assert_grads_close(f, [x, gam, bet], [tx.grad, tg.grad, tb.grad])

    @pytest.mark.parametrize("shape", [(2, 3, 4, 4), (3, 5)])
    def test_float32_stays_float32(self, shape):
        rng = np.random.default_rng(4)
        c = shape[1]
        tx = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        tg = Tensor(np.ones(c, dtype=np.float32), requires_grad=True)
        tb = Tensor(np.zeros(c, dtype=np.float32), requires_grad=True)
        out = instance_norm(tx, tg, tb)
        assert out.dtype == np.float32
        (out * out).sum().backward()
        assert tx.grad.dtype == tg.grad.dtype == tb.grad.dtype == np.float32

    def test_singleton_group_rejected(self):
        with pytest.raises(ValueError, match="single element"):
            instance_norm(Tensor(np.ones((2, 1))), Tensor(np.ones(1)), Tensor(np.zeros(1)))
        with pytest.raises(ValueError, match="single element"):
            instance_norm(Tensor(np.ones((2, 3, 1, 1))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


class TestResampling:
    def test_down_of_up_is_identity(self):
        rng = np.random.default_rng(3)
        x = np.abs(rng.standard_normal((2, 3, 4, 4)))
        out = max_pool2x2(upsample_nearest2x(Tensor(x), Tensor(np.ones((2, 0, 8, 8)))))
        np.testing.assert_array_equal(out.data, x)

    def test_up_doubles_spatial_dims(self):
        skip = np.random.default_rng(12).standard_normal((1, 3, 10, 14))
        out = upsample_nearest2x(Tensor(np.ones((1, 2, 5, 7))), Tensor(skip))
        assert out.shape == (1, 5, 10, 14)
        np.testing.assert_array_equal(out.data[:, :3], skip)
        np.testing.assert_array_equal(out.data[:, 3:], 1.0)

    def test_skip_of_another_size_rejected(self):
        with pytest.raises(ValueError, match="twice the size"):
            upsample_nearest2x(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 6, 8))))

    def test_maxpool_routes_gradient_to_argmax(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        tx = Tensor(x, requires_grad=True)
        out = max_pool2x2(tx)
        np.testing.assert_array_equal(out.data[0, 0], [[5, 7], [13, 15]])
        (out * Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))).sum().backward()
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, 1, 1] = 1.0
        expected[0, 0, 1, 3] = 2.0
        expected[0, 0, 3, 1] = 3.0
        expected[0, 0, 3, 3] = 4.0
        np.testing.assert_array_equal(tx.grad, expected)

    def test_maxpool_ties_route_to_first_window_position(self):
        # windows: all zero (as after ReLU), tie at (0,1)/(1,1), tie at (1,0)/(1,1),
        # full tie at 2.0, unique maximum at (1,1)
        x = np.array([[0.0, 0.0, 1.0, 3.0, 1.0, 0.0, 2.0, 2.0, 0.0, 1.0],
                      [0.0, 0.0, 2.0, 3.0, 4.0, 4.0, 2.0, 2.0, 1.0, 5.0]]).reshape(1, 1, 2, 10)
        tx = Tensor(x, requires_grad=True)
        out = max_pool2x2(tx)
        np.testing.assert_array_equal(out.data[0, 0, 0], [0.0, 3.0, 4.0, 2.0, 5.0])
        g = np.array([1.0, 2.0, 3.0, 4.0, 5.0]).reshape(1, 1, 1, 5)
        (out * Tensor(g)).sum().backward()
        expected = np.zeros_like(x)
        for col, (di, dj) in enumerate([(0, 0), (0, 1), (1, 0), (0, 0), (1, 1)]):
            expected[0, 0, di, 2 * col + dj] = g[0, 0, 0, col]
        np.testing.assert_array_equal(tx.grad, expected)

    def test_maxpool_matches_loop_oracle_with_ties(self):
        rng = np.random.default_rng(9)
        # ReLU'd small integers: many all-zero and partly tied windows
        x = np.maximum(rng.integers(-2, 3, size=(2, 3, 6, 8)), 0).astype(np.float64)
        g = rng.standard_normal((2, 3, 3, 4))
        tx = Tensor(x, requires_grad=True)
        out = max_pool2x2(tx)
        np.testing.assert_array_equal(out.data, x.reshape(2, 3, 3, 2, 4, 2).max(axis=(3, 5)))
        (out * Tensor(g)).sum().backward()
        np.testing.assert_array_equal(tx.grad, max_pool_grad_loop(x, g))

    def test_odd_spatial_size_rejected(self):
        with pytest.raises(ValueError):
            max_pool2x2(Tensor(np.ones((1, 1, 5, 4))))

    def test_upsample_backward_sums_blocks(self):
        x = np.random.default_rng(4).standard_normal((1, 1, 2, 2))
        tx = Tensor(x, requires_grad=True)
        upsample_nearest2x(tx, Tensor(np.ones((1, 0, 4, 4)))).sum().backward()
        np.testing.assert_array_equal(tx.grad, np.full((1, 1, 2, 2), 4.0))

    def test_upsample_backward_matches_block_reshape_sum(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 4, 5))
        g = rng.standard_normal((2, 5, 8, 10))
        tx = Tensor(x, requires_grad=True)
        tskip = Tensor(rng.standard_normal((2, 2, 8, 10)), requires_grad=True)
        (upsample_nearest2x(tx, tskip) * Tensor(g)).sum().backward()
        blocks = g[:, 2:].reshape(2, 3, 4, 2, 5, 2).sum(axis=(3, 5))
        np.testing.assert_allclose(tx.grad, blocks, rtol=1e-14, atol=1e-14)
        np.testing.assert_array_equal(tskip.grad, g[:, :2])


# -- the separate nodes that instance_norm and upsample_nearest2x merge -------

def relu_node(x):
    out_data = np.maximum(x.data, 0)

    def grad_fn(g):
        x.accumulate_grad(g * (out_data > 0))

    return graph_node(out_data, (x,), grad_fn)


def norm_node(x, gamma, beta):
    """The plain instance norm as its own node, keeping x - mean."""
    d = x.data
    if d.ndim == 4:
        axes, group_dot, m = (2, 3), "bchw,bchw->bc", d.shape[2] * d.shape[3]
    else:
        axes, group_dot, m = (1,), "bc,bc->b", d.shape[1]
    xc = d - d.mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(np.einsum(group_dot, xc, xc) / m + NORM_EPS)
    inv = inv.reshape(inv.shape + (1,) * len(axes))
    pshape = (1, -1) + (1,) * (d.ndim - 2)
    gk = gamma.data.reshape(pshape)
    scale = gk * inv
    out_data = xc * scale
    out_data += beta.data.reshape(pshape)

    def grad_fn(g):
        if d.ndim == 4:
            sg = g.sum(axis=axes, keepdims=True)
            sgx = np.einsum(group_dot, g, xc).reshape(sg.shape)
            gamma.accumulate_grad((sgx * inv).sum(axis=(0, 2, 3)))
            beta.accumulate_grad(sg.sum(axis=(0, 2, 3)))
            sg, sgx = gk * sg, gk * sgx
        else:
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


def upsample_node(x):
    """Nearest-neighbor 2x upsampling as its own node."""
    out_data = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

    def grad_fn(g):
        gx = g[:, :, 0::2, 0::2] + g[:, :, 0::2, 1::2]
        gx += g[:, :, 1::2, 0::2]
        gx += g[:, :, 1::2, 1::2]
        x.accumulate_grad(gx)

    return graph_node(out_data, (x,), grad_fn)


def channel_major(a):
    """A (B, C, ...) view of (C, B, ...) memory, the layout conv2d returns."""
    return np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)


def values_and_grads(op, arrays, g):
    """op's output and every input's gradient for the output gradient g."""
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*ts)
    (out * Tensor(g)).sum().backward()
    return [out.data] + [t.grad for t in ts]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestMergedNodesEqualTheSeparateNodes:
    """Bit for bit: a merged node changes which arrays the graph keeps, not
    one rounding."""

    def assert_same(self, merged, separate, arrays, g):
        got = values_and_grads(merged, arrays, g)
        want = values_and_grads(separate, arrays, g)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shape", [(3, 5, 6, 7), (6, 5)])
    def test_instance_norm_is_relu_of_the_plain_norm(self, dtype, shape):
        rng = np.random.default_rng(30)
        x = rng.standard_normal(shape).astype(dtype)
        c = shape[1]
        gamma = (1 + 0.3 * rng.standard_normal(c)).astype(dtype)
        beta = (0.2 * rng.standard_normal(c)).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        if len(shape) == 4:
            x, g = channel_major(x), channel_major(g)
        self.assert_same(instance_norm, lambda *ts: relu_node(norm_node(*ts)),
                         [x, gamma, beta], g)

    def test_upsample_is_the_concat_of_skip_and_upsampled_map(self, dtype):
        rng = np.random.default_rng(31)
        x = channel_major(rng.standard_normal((3, 4, 5, 6)).astype(dtype))
        skip = channel_major(rng.standard_normal((3, 2, 10, 12)).astype(dtype))
        g = channel_major(rng.standard_normal((3, 6, 10, 12)).astype(dtype))
        self.assert_same(lambda s, t: upsample_nearest2x(t, s),
                         lambda s, t: concat([s, upsample_node(t)], axis=1), [skip, x], g)


class TestPerPixelLinear:
    def test_identity_weight(self):
        x = np.random.default_rng(5).standard_normal((2, 3, 4, 4))
        out = per_pixel_linear(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, x)

    def test_equals_1x1_conv(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 5, 6, 6))
        w = rng.standard_normal((5, 3))
        b = rng.standard_normal(3)
        out = per_pixel_linear(Tensor(x), Tensor(w), Tensor(b))
        conv = T.conv2d(Tensor(x), Tensor(w.T.reshape(3, 5, 1, 1)))
        np.testing.assert_allclose(out.data, conv.data + b[None, :, None, None], rtol=1e-12)

    def test_single_pixel_reduces_to_fully_connected(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 5, 1, 1))
        w = rng.standard_normal((5, 2))
        b = rng.standard_normal(2)
        out = per_pixel_linear(Tensor(x), Tensor(w), Tensor(b))
        fc = T.linear(Tensor(x[:, :, 0, 0]), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data[:, :, 0, 0], fc.data, rtol=1e-12)

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 3, 2, 2))
        w = rng.standard_normal((3, 2))
        b = rng.standard_normal(2)
        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = per_pixel_linear(tx, tw, tb)
        (out * out).sum().backward()

        def f(x_, w_, b_):
            o = np.einsum("bchw,cn->bnhw", x_, w_) + b_[None, :, None, None]
            return float((o * o).sum())

        assert_grads_close(f, [x, w, b], [tx.grad, tw.grad, tb.grad])

    # the layouts the up-projections pass: a block's channel-major output and a
    # channel slice; the upstream gradient arrives non-contiguous
    @pytest.mark.parametrize("layout", ["channel_major", "sliced"])
    def test_non_contiguous_input_and_gradient_match_einsum_oracle(self, layout):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4, 5, 6))
        if layout == "channel_major":
            view = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        else:
            big = np.zeros((3, 9, 5, 6))
            big[:, 1:9:2] = x
            view = big[:, 1:9:2]
        assert not view.flags.c_contiguous
        w, b = rng.standard_normal((4, 2)), rng.standard_normal(2)
        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (view, w, b))
        out = per_pixel_linear(tx, tw, tb)
        np.testing.assert_allclose(
            out.data, np.einsum("bchw,cn->bnhw", x, w) + b[None, :, None, None], rtol=1e-12)
        # channel-major out, as conv2d's
        assert out.data.transpose(1, 0, 2, 3).flags.c_contiguous
        g = np.asfortranarray(rng.standard_normal(out.shape))
        assert not g.flags.c_contiguous
        out._grad_fn(g)
        np.testing.assert_allclose(tx.grad, np.einsum("bnhw,cn->bchw", g, w), rtol=1e-12)
        np.testing.assert_allclose(tw.grad, np.einsum("bchw,bnhw->cn", x, g), rtol=1e-12)
        np.testing.assert_allclose(tb.grad, g.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            per_pixel_linear(Tensor(np.ones((1, 3, 2, 2))), Tensor(np.ones((4, 2))),
                             Tensor(np.zeros(2)))


# (feature, gate, a gate that does not broadcast over the feature) for PCS's
# channel gate and HC's class-averaged attention
GATE_SHAPES = {"pcs": ((2, 4, 3, 3), (2, 4, 1, 1), (2, 5, 1, 1)),
               "hc": ((2, 3, 4, 4), (2, 1, 4, 4), (2, 1, 5, 5))}

# the residual sum built from generic nodes, in both orders of its add;
# the one gate node must equal both bit for bit
SEPARATE_GATES = {"f + f * s": lambda tf, ts: tf + tf * ts,
                  "f * s + f": lambda tf, ts: tf * ts + tf}


@pytest.mark.parametrize("case", list(GATE_SHAPES))
class TestGate:
    def test_zero_gate_is_identity(self, case):
        f_shape, s_shape, _ = GATE_SHAPES[case]
        f = np.random.default_rng(40).standard_normal(f_shape)
        np.testing.assert_array_equal(gate(Tensor(f), Tensor(np.zeros(s_shape))).data, f)

    def test_unit_gate_doubles(self, case):
        f_shape, s_shape, _ = GATE_SHAPES[case]
        f = np.random.default_rng(41).standard_normal(f_shape)
        np.testing.assert_array_equal(gate(Tensor(f), Tensor(np.ones(s_shape))).data, 2 * f)

    def test_gate_in_unit_interval_never_attenuates_or_flips_a_sign(self, case):
        f_shape, s_shape, _ = GATE_SHAPES[case]
        rng = np.random.default_rng(42)
        f, s = rng.standard_normal(f_shape), rng.random(s_shape)
        out = gate(Tensor(f), Tensor(s)).data
        assert np.all(np.abs(out) >= np.abs(f) - 1e-15)
        assert np.all(np.sign(out) == np.sign(f))
        fp = np.abs(f)
        outp = gate(Tensor(fp), Tensor(s)).data
        assert np.all(outp >= fp - 1e-15) and np.all(outp <= 2 * fp + 1e-15)

    @pytest.mark.parametrize("wrong", ["mismatched", "extra_axis"])
    def test_gate_of_the_wrong_shape_rejected(self, case, wrong):
        f_shape, s_shape, bad = GATE_SHAPES[case]
        # a gate with an extra leading axis broadcasts, but would grow the feature
        s_shape = bad if wrong == "mismatched" else (1,) + s_shape
        with pytest.raises(ValueError):
            gate(Tensor(np.zeros(f_shape)), Tensor(np.zeros(s_shape)))

    def test_grads_match_finite_differences(self, case):
        f_shape, s_shape, _ = GATE_SHAPES[case]
        rng = np.random.default_rng(43)
        f, s, w = rng.standard_normal(f_shape), rng.random(s_shape), rng.standard_normal(f_shape)
        tf, ts = Tensor(f, requires_grad=True), Tensor(s, requires_grad=True)
        (gate(tf, ts) * Tensor(w)).sum().backward()
        assert ts.grad.shape == s_shape   # summed back to the gate's own shape

        def loss(f_, s_):
            return float(((f_ * s_ + f_) * w).sum())

        assert_grads_close(loss, [f, s], [tf.grad, ts.grad])

    @pytest.mark.parametrize("separate", list(SEPARATE_GATES))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_node_equals_the_separate_nodes_bit_for_bit(self, case, dtype, separate):
        # f also feeds a second term whose gradient reaches f first, as the
        # coarse heads' and PCS's descriptor's do in the model, so the order in
        # which the node adds g and g * s to f's gradient shows in the last bits
        f_shape, s_shape, _ = GATE_SHAPES[case]
        rng = np.random.default_rng(44)
        f = channel_major(rng.standard_normal(f_shape).astype(dtype))
        s = rng.random(s_shape).astype(dtype)
        w, v = (Tensor(rng.standard_normal(f_shape).astype(dtype)) for _ in range(2))

        def run(op):
            tf, ts = Tensor(f, requires_grad=True), Tensor(s, requires_grad=True)
            out = op(tf, ts)
            ((out * w).sum() + (tf * v).sum()).backward()
            return out.data, tf.grad, ts.grad

        for got, want in zip(run(gate), run(SEPARATE_GATES[separate]), strict=True):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)


class TestParameterNames:
    def test_names_are_unique_and_say_where_each_parameter_sits(self):
        model = SegmentationModel(**TINY, n_sites=3, rng=np.random.default_rng(9))
        names = list(model.params)
        assert {n.split(".", 1)[0] for n in names} == {
            "enc0", "enc1", "enc2", "up0", "dec0", "up1", "dec1", "pcsgen",
            "head_coarse", "head_calib"}
        assert [n for n in names if n.startswith("head_")] == [
            "head_coarse.w", "head_coarse.b", "head_calib.w", "head_calib.b"]

    def test_without_pcs_the_generator_is_left_out_and_the_rest_keeps_its_numbers(self):
        full = SegmentationModel(**TINY, n_sites=3, rng=np.random.default_rng(9))
        lean = SegmentationModel(**TINY, n_sites=3, rng=np.random.default_rng(9), pcs=False)
        kept = {n: t.data for n, t in full.params.items() if not n.startswith("pcsgen.")}
        assert len(kept) < len(full.params)
        got = {n: t.data for n, t in lean.params.items()}
        assert list(got) == list(kept)
        for n, a in kept.items():
            np.testing.assert_array_equal(got[n], a)

    # a repeated name would silently overwrite an entry of the table; the
    # table's order is also the checkpoint's array order
    @pytest.mark.parametrize("pcs", [True, False], ids=["pcs", "no_pcs"])
    def test_tiny_model_names_in_table_order(self, pcs):
        model = SegmentationModel(**TINY, n_sites=3, rng=np.random.default_rng(9), pcs=pcs)
        expected = [n for n in TINY_NAMES if pcs or not n.startswith("pcsgen.")]
        assert len(expected) == (31 if pcs else 23)
        assert list(model.params) == expected
        assert [(n, stage) for n, _, stage in model.named_parameters()] == [
            (n, n.split(".", 1)[0]) for n in expected]


class TestModelForward:
    def test_shapes_and_range(self):
        model = SegmentationModel(**TINY, n_sites=2, rng=np.random.default_rng(10))
        x = Tensor(np.random.default_rng(11).random((2, 1, 8, 8)))
        skips, f = encode(model.params, x)
        assert f.shape == (2, 4, 2, 2)
        assert [s.shape for s in skips] == [(2, 2, 8, 8), (2, 3, 4, 4)]
        f_hat = decode(model.params, f, skips)
        assert f_hat.shape == (2, 2, 8, 8)
        s = sigmoid(head(model.params, "head_coarse", f_hat))
        assert s.shape == (2, 1, 8, 8)
        assert np.all((s.data > 0) & (s.data < 1))

    def test_conv_blocks_have_no_bias_projections_keep_theirs(self):
        model = SegmentationModel(**TINY, n_sites=2, rng=np.random.default_rng(3))
        names = list(model.params)
        assert not [n for n in names if n.endswith("conv.b")]
        assert "enc0.conv.w" in names and "up0.b" in names


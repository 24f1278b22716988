import tracemalloc
import weakref

import numpy as np
import pytest

from lcfed import tensor as T
from lcfed.tensor import Tensor

from gradcheck import assert_grads_close, numeric_grad, rel_err


def conv2d_loop(x, kernels):
    """Naive nested-loop same-padded, stride-1 cross-correlation oracle."""
    b, cin, h, w = x.shape
    cout, _, k, _ = kernels.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((b, cout, h, w), dtype=x.dtype)
    for bi in range(b):
        for o in range(cout):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for c in range(cin):
                        for di in range(k):
                            for dj in range(k):
                                acc += xp[bi, c, i + di, j + dj] * kernels[o, c, di, dj]
                    out[bi, o, i, j] = acc
    return out


def conv2d_grads_loop(x, kernels, g):
    """Naive nested-loop gradients of sum(conv2d(x, kernels) * g):
    every output element scatters g into the input and kernel entries it read."""
    b, cin, h, w = x.shape
    cout, _, k, _ = kernels.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(kernels)
    for bi in range(b):
        for o in range(cout):
            for i in range(h):
                for j in range(w):
                    for c in range(cin):
                        for di in range(k):
                            for dj in range(k):
                                y, z = i + di, j + dj
                                dxp[bi, c, y, z] += g[bi, o, i, j] * kernels[o, c, di, dj]
                                dk[o, c, di, dj] += g[bi, o, i, j] * xp[bi, c, y, z]
    return dxp[:, :, pad:pad + h, pad:pad + w], dk


class TestElementwise:
    def test_mul_broadcast_scalar_like(self):
        out = Tensor([1.0, 2.0, 3.0]) * Tensor([2.0, 2.0, 2.0])
        np.testing.assert_array_equal(out.data, [2.0, 4.0, 6.0])

    def test_add_identity(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        out = x + Tensor(np.zeros((2, 3)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_grad_of_sum_mul_equals_other_factor(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (ta * tb).sum().backward()
        np.testing.assert_allclose(ta.grad, b, rtol=0, atol=0)
        # independent finite-difference cross-check
        ng = numeric_grad(lambda a_, b_: float((a_ * b_).sum()), [a, b], 0)
        assert rel_err(ta.grad, ng) < 1e-6

    def test_sub_and_neg_grads(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = (ta - tb) * Tensor(2.0)
        (-out).sum().backward()
        np.testing.assert_allclose(ta.grad, -2 * np.ones_like(a))
        np.testing.assert_allclose(tb.grad, 2 * np.ones_like(b))

    def test_channel_gate_broadcast(self):
        # (B, C, 1, 1) gate against (B, C, H, W) feature, the shape PCS uses
        rng = np.random.default_rng(2)
        f = rng.standard_normal((2, 3, 4, 4))
        gate = rng.random((2, 3))
        tf = Tensor(f, requires_grad=True)
        tg = Tensor(gate, requires_grad=True)
        out = tf * tg.reshape(2, 3, 1, 1)
        assert out.shape == (2, 3, 4, 4)
        out.sum().backward()
        np.testing.assert_allclose(tg.grad, f.sum(axis=(2, 3)), rtol=1e-12)
        np.testing.assert_allclose(tf.grad, np.broadcast_to(gate[:, :, None, None], f.shape))

    def test_incompatible_shapes_raise(self):
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((4, 5)))


class TestMatmul:
    def test_one_hot_row_selects_weight_row(self):
        out = T.linear(Tensor([[1.0, 0.0]]), Tensor([[2.0, 3.0], [4.0, 5.0]]),
                       Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [[2.0, 3.0]])

    def test_identity_weight(self):
        x = np.random.default_rng(3).standard_normal((4, 5))
        out = T.linear(Tensor(x), Tensor(np.eye(5)), Tensor(np.zeros(5)))
        np.testing.assert_allclose(out.data, x)

    def test_weight_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        b = rng.standard_normal(2)

        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
        T.linear(tx, tw, tb).sum().backward()

        def f(x_, w_, b_):
            return float((x_ @ w_ + b_).sum())

        assert_grads_close(f, [x, w, b], [tx.grad, tw.grad, tb.grad])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="inner dims"):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(np.zeros(2)))


class TestConv2d:
    def test_1x1_unit_kernel_is_identity(self):
        x = np.random.default_rng(5).standard_normal((1, 1, 6, 6))
        out = T.conv2d(Tensor(x), Tensor(np.ones((1, 1, 1, 1))))
        np.testing.assert_allclose(out.data, x)

    def test_averaging_kernel_on_constant_image(self):
        x = np.full((1, 1, 8, 8), 3.5)
        k = np.full((1, 1, 3, 3), 1.0 / 9.0)
        out = T.conv2d(Tensor(x), Tensor(k))
        np.testing.assert_allclose(out.data[0, 0, 1:-1, 1:-1], 3.5)

    def test_forward_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(k))
        np.testing.assert_allclose(out.data, conv2d_loop(x, k), rtol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        tx, tk = (Tensor(a, requires_grad=True) for a in (x, k))
        T.conv2d(tx, tk).sum().backward()

        def f(x_, k_):
            return float(conv2d_loop(x_, k_).sum())

        assert_grads_close(f, [x, k], [tx.grad, tk.grad])

    # (batch, cin, cout, size, k); an explicit id keeps the name a case had
    # when the table also carried stride and padding (the "1-None") and a bias
    # flag (the last True/False): the rows that had a bias run without one
    ORACLE_CASES = [
        pytest.param(1, 2, 3, 5, 3, id="1-2-3-5-3-1-None-True"),
        pytest.param(3, 1, 2, 6, 3, id="3-1-2-6-3-1-None-False"),  # Cin = 1, B > 1
        pytest.param(2, 3, 2, 5, 1, id="2-3-2-5-1-1-None-True"),   # 1x1
        pytest.param(1, 2, 2, 9, 5, id="1-2-2-9-5-True"),          # 5x5
        # 5x5 on a 2x2 input: most taps read padding
        pytest.param(1, 1, 2, 2, 5, id="1-1-2-2-5-True"),
    ]

    # (batch, cin, cout, size, k, tile bytes): tile budgets small enough that
    # every pass, forward and backward, splits; ids as in ORACLE_CASES
    TILE_CASES = [
        pytest.param(2, 1, 2, 7, 3, 1512,   # bands of 3, 4 rows (2, 2, 3 in dx)
                     id="2-1-2-7-3-1-None-True-1512"),
        pytest.param(5, 2, 2, 4, 3, 4608,   # 2 and 3 whole images per tile
                     id="5-2-2-4-3-1-None-False-4608"),
        pytest.param(2, 1, 3, 13, 3, 1008,  # one-row bands (2, 2, 2, 2, 2, 3 rows in dx)
                     id="2-1-3-13-3-True-1008"),
        pytest.param(2, 1, 2, 14, 5, 1,     # 5x5: one-row bands (3, 4, 3, 4 rows in dx)
                     id="2-1-2-14-5-True-1"),
    ]

    @staticmethod
    def check_against_loop_oracle(b, cin, cout, size, k):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((b, cin, size, size))
        kern = rng.standard_normal((cout, cin, k, k))
        tx, tk = Tensor(x, requires_grad=True), Tensor(kern, requires_grad=True)
        out = T.conv2d(tx, tk)
        ref = conv2d_loop(x, kern)
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)

        g = rng.standard_normal(ref.shape)
        (out * Tensor(g)).sum().backward()
        dx, dk = conv2d_grads_loop(x, kern, g)
        np.testing.assert_allclose(tx.grad, dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(tk.grad, dk, rtol=1e-12, atol=1e-12)

    @staticmethod
    def check_constant_input_against_loop_oracle(b, cin, cout, size, k):
        # without dx there are no gradient columns: dW comes from x's own columns
        rng = np.random.default_rng(11)
        x = rng.standard_normal((b, cin, size, size))
        kern = rng.standard_normal((cout, cin, k, k))
        tk = Tensor(kern, requires_grad=True)
        out = T.conv2d(Tensor(x), tk)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        _, dk = conv2d_grads_loop(x, kern, g)
        np.testing.assert_allclose(tk.grad, dk, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("b,cin,cout,size,k", ORACLE_CASES)
    def test_forward_and_gradients_match_loop_oracle(self, b, cin, cout, size, k):
        self.check_against_loop_oracle(b, cin, cout, size, k)

    @pytest.mark.parametrize("b,cin,cout,size,k", ORACLE_CASES)
    def test_constant_input_kernel_gradient_matches_loop_oracle(self, b, cin, cout, size, k):
        self.check_constant_input_against_loop_oracle(b, cin, cout, size, k)

    @pytest.mark.parametrize("constant_input", [False, True])
    @pytest.mark.parametrize("b,cin,cout,size,k,tile_bytes", TILE_CASES)
    def test_tiled_passes_match_loop_oracle(self, monkeypatch, b, cin, cout, size, k,
                                            tile_bytes, constant_input):
        monkeypatch.setattr(T, "TILE_BYTES", tile_bytes)
        # label each tile of columns with the pass that used it
        tiles, phase = [], ["forward"]
        im2col_tiles, conv2d = T._im2col_tiles, T.conv2d

        def counted(*args):
            for tile in im2col_tiles(*args):
                tiles.append(phase[0])
                yield tile

        monkeypatch.setattr(T, "_im2col_tiles", counted)

        def conv2d_then_backward(*args, **kwargs):
            out = conv2d(*args, **kwargs)
            phase[0] = "backward"
            return out

        monkeypatch.setattr(T, "conv2d", conv2d_then_backward)
        if constant_input:
            self.check_constant_input_against_loop_oracle(b, cin, cout, size, k)
        else:
            self.check_against_loop_oracle(b, cin, cout, size, k)
        assert tiles.count("forward") > 1 and tiles.count("backward") > 1

    @pytest.mark.parametrize("layout", ["channel_major", "sliced"])
    def test_non_contiguous_input_matches_loop_oracle(self, layout):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 2, 6, 6))
        if layout == "channel_major":
            view = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        else:
            big = np.zeros((3, 5, 8, 8))
            big[:, 1:5:2, 1:7, 1:7] = x
            view = big[:, 1:5:2, 1:7, 1:7]
        assert not view.flags.c_contiguous
        kern = rng.standard_normal((4, 2, 3, 3))
        tx, tk = Tensor(view, requires_grad=True), Tensor(kern, requires_grad=True)
        out = T.conv2d(tx, tk)
        np.testing.assert_allclose(out.data, conv2d_loop(x, kern), rtol=1e-12)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        dx, dk = conv2d_grads_loop(x, kern, g)
        np.testing.assert_allclose(tx.grad, dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(tk.grad, dk, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("x_tracks", [True, False])
    def test_non_contiguous_upstream_gradient(self, x_tracks):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 3, 5, 5))
        kern = rng.standard_normal((4, 3, 3, 3))
        tx, tk = Tensor(x, requires_grad=x_tracks), Tensor(kern, requires_grad=True)
        out = T.conv2d(tx, tk)
        g = rng.standard_normal(out.shape)
        for g_view in (np.asfortranarray(g), np.ascontiguousarray(g[:, ::-1])[:, ::-1]):
            assert not g_view.flags.c_contiguous
            tx.grad, tk.grad = None, np.zeros_like(kern)
            out._grad_fn(g_view)
            dx, dk = conv2d_grads_loop(x, kern, g)
            np.testing.assert_allclose(tk.grad, dk, rtol=1e-12, atol=1e-12)
            if x_tracks:
                np.testing.assert_allclose(tx.grad, dx, rtol=1e-12, atol=1e-12)
            else:
                assert tx.grad is None

    def test_forward_retains_less_than_one_column_buffer(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((6, 16, 64, 64)), requires_grad=True)
        kern = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
        cols_bytes = 16 * 9 * 6 * 64 * 64 * 8
        tracemalloc.start()
        try:
            out = T.conv2d(x, kern)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert retained < cols_bytes

    def test_1x1_columns_of_a_non_contiguous_input_are_copied_tiles(self, monkeypatch):
        monkeypatch.setattr(T, "TILE_BYTES", 1)
        xp = np.random.default_rng(18).standard_normal((3, 4, 5, 5))
        view = xp[:, :, ::2, ::2]
        tiles = list(T._im2col_tiles(view, 1))
        assert len(tiles) > 1 and not any(np.shares_memory(t[2], xp) for t in tiles)
        cols = np.concatenate([t[2] for t in tiles], axis=1)
        np.testing.assert_array_equal(cols.reshape(view.shape), view)

    def test_forward_and_backward_peak_below_one_column_buffer(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((6, 16, 64, 64)), requires_grad=True)
        kern = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
        g = Tensor(rng.standard_normal((6, 16, 64, 64)))
        cols_bytes = 16 * 9 * 6 * 64 * 64 * 8
        tracemalloc.start()
        try:
            (T.conv2d(x, kern) * g).sum().backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad is not None and np.any(kern.grad)
        assert peak < cols_bytes

    # (input shape, cout, input tracks its gradient): desk-sized convs that the
    # default budget splits into many tiles
    SPLIT_CASES = [
        ((6, 16, 64, 64), 8, True),
        ((6, 32, 32, 32), 16, True),
        ((6, 1, 64, 64), 8, False),
    ]

    @pytest.mark.parametrize("shape,cout,x_tracks", SPLIT_CASES,
                             ids=["dec3", "dec2", "constant_input"])
    def test_tiles_equal_a_one_tile_build(self, monkeypatch, shape, cout, x_tracks):
        # splitting a GEMM's columns reorders no sum, so the output and dx are
        # bit-identical; dW adds the tiles' partial sums in another order
        b, cin, h, w = shape
        assert len(list(T._im2col_tiles(np.zeros((cin, b, h + 2, w + 2)), 3))) > 1
        rng = np.random.default_rng(15)
        x = rng.standard_normal(shape)
        kern = rng.standard_normal((cout, cin, 3, 3))

        def run():
            tx, tk = Tensor(x, requires_grad=x_tracks), Tensor(kern, requires_grad=True)
            out = T.conv2d(tx, tk)
            g = np.random.default_rng(16).standard_normal(out.shape)
            (out * Tensor(g)).sum().backward()
            return out.data, tx.grad, tk.grad

        tiled = run()
        monkeypatch.setattr(T, "TILE_BYTES", 1 << 62)
        whole = run()
        assert np.array_equal(tiled[0], whole[0])
        if x_tracks:
            assert np.array_equal(tiled[1], whole[1])
        np.testing.assert_allclose(tiled[2], whole[2], rtol=1e-12,
                                   atol=1e-12 * np.abs(whole[2]).max())

    def test_constant_operands_get_no_gradient(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((2, 2, 5, 5)))
        tk = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        T.conv2d(x, tk).sum().backward()
        assert x.grad is None
        assert np.any(tk.grad)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            T.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 5, 3, 3))))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            T.conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 2, 2))))


class TestReductionsAndActivations:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_strictly_in_unit_interval(self):
        x = np.linspace(-50, 50, 101)
        out = T.sigmoid(Tensor(x)).data
        assert np.all(out > 0) and np.all(out < 1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bitwise_equal_to_the_masked_formula(self, dtype):
        def masked(d):
            out = np.empty_like(d)
            pos = d >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
            e = np.exp(d[~pos])
            out[~pos] = e / (1.0 + e)
            one = d.dtype.type(1)
            np.clip(out, np.nextafter(d.dtype.type(0), one), np.nextafter(one, 0), out=out)
            return out

        big = np.finfo(dtype).max
        edge = np.array([0.0, -0.0, 800.0, -800.0, big, -big, np.nan, -np.nan], dtype=dtype)
        noise = np.random.default_rng(17).standard_normal((6, 2, 16, 16)) * 30
        uint = np.uint32 if dtype == np.float32 else np.uint64
        for d in (edge, noise.astype(dtype)):
            out = T.sigmoid(Tensor(d)).data
            assert out.dtype == dtype
            assert np.array_equal(out.view(uint), masked(d).view(uint))

    def test_spatial_mean_of_a_constant(self):
        x = np.full((2, 3, 4, 4), 1.25)
        out = Tensor(x).mean(axis=(2, 3))
        np.testing.assert_allclose(out.data, np.full((2, 3), 1.25))

    def test_abs_backward_away_from_kink(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(12)
        x = x[np.abs(x) > 1e-3][:8]
        tx = Tensor(x, requires_grad=True)
        tx.abs().sum().backward()
        ng = numeric_grad(lambda a: float(np.abs(a).sum()), [x], 0)
        assert rel_err(tx.grad, ng) < 1e-5

    def test_concat_splits_gradient(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((1, 2, 3, 3))
        b = rng.standard_normal((1, 4, 3, 3))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = T.concat([ta, tb], axis=1)
        assert out.shape == (1, 6, 3, 3)
        (out * out).sum().backward()
        np.testing.assert_allclose(ta.grad, 2 * a)
        np.testing.assert_allclose(tb.grad, 2 * b)

    def test_sigmoid_gap_grads_match_fd(self):
        rng = np.random.default_rng(11)
        # a relu'd map, as the model's blocks emit: a quarter of it exactly 0
        x = np.maximum(rng.standard_normal((2, 3, 4, 4)), 0)
        tx = Tensor(x, requires_grad=True)
        T.sigmoid(tx).mean(axis=(2, 3)).sum().backward()

        def f(x_):
            s = 1 / (1 + np.exp(-x_))
            return float(s.mean(axis=(2, 3)).sum())

        assert_grads_close(f, [x], [tx.grad])


class TestStopGradient:
    def test_value_identity(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        np.testing.assert_array_equal(T.stop_gradient(x).data, x.data)

    def test_blocks_gradient_exactly(self):
        x = Tensor(np.arange(4.0) + 1.0, requires_grad=True)
        T.stop_gradient(x).sum().backward()
        assert x.grad is None   # no gradient, not even a zero one, reaches x

    def test_product_with_detached_self(self):
        # d/dx sum(x * sg(x)) = x, not 2x
        v = np.array([1.0, -2.0, 3.0])
        x = Tensor(v, requires_grad=True)
        (x * T.stop_gradient(x)).sum().backward()
        np.testing.assert_allclose(x.grad, v)


class TestGetitem:
    @pytest.mark.parametrize("index", [1, (slice(None), 2), (Ellipsis, slice(1, 3)),
                                       (0, None, slice(None, None, 2))])
    def test_value_and_gradient_match_fd(self, index):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((3, 4, 5))
        w = rng.standard_normal(x[index].shape)
        tx = Tensor(x, requires_grad=True)
        out = tx[index]
        np.testing.assert_array_equal(out.data, x[index])
        (out * Tensor(w)).sum().backward()
        assert_grads_close(lambda x_: float((x_[index] * w).sum()), [x], [tx.grad])

    def test_unselected_entries_get_exact_zero(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        x[1].sum().backward()
        np.testing.assert_array_equal(x.grad, [[0, 0, 0], [1, 1, 1]])

    def test_two_slices_accumulate(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        (x[0:2] + x[1:3]).sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 2.0, 1.0])

    @pytest.mark.parametrize("index", [np.array([0, 0]), [0, 1], True, (0, np.array([1]))])
    def test_advanced_indexing_rejected(self, index):
        with pytest.raises(TypeError, match="basic indexing"):
            Tensor(np.zeros((2, 3)))[index]


# (op, axis, keepdims): None, an int, a negative int and tuples, each both ways
REDUCTIONS = [(op, axis, keepdims) for op in ("sum", "mean")
              for axis in (None, 1, -1, (0, 2), (-3, -1)) for keepdims in (False, True)]


class TestSumAndMean:
    @pytest.mark.parametrize("op,axis,keepdims", REDUCTIONS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_values_are_numpy_bit_for_bit(self, op, axis, keepdims, dtype):
        x = np.random.default_rng(12).standard_normal((3, 4, 5)).astype(dtype)
        out = getattr(Tensor(x), op)(axis=axis, keepdims=keepdims)
        expected = np.asarray(getattr(x, op)(axis=axis, keepdims=keepdims))
        assert out.dtype == dtype and out.shape == expected.shape
        assert np.array_equal(out.data, expected)

    @pytest.mark.parametrize("op,axis,keepdims", REDUCTIONS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_grad_of_the_total_is_one_or_one_over_the_count(self, op, axis, keepdims, dtype):
        x = Tensor(np.random.default_rng(12).standard_normal((3, 4, 5)).astype(dtype),
                   requires_grad=True)
        out = getattr(x, op)(axis=axis, keepdims=keepdims)
        out.sum().backward()
        one = dtype(1) / dtype(x.size // out.size) if op == "mean" else dtype(1)
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad, np.full(x.shape, one))

    @pytest.mark.parametrize("op,axis,keepdims", REDUCTIONS)
    def test_grads_match_finite_differences(self, op, axis, keepdims):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 4, 5))
        w = rng.standard_normal(np.shape(getattr(x, op)(axis=axis, keepdims=keepdims)))
        tx = Tensor(x, requires_grad=True)
        (getattr(tx, op)(axis=axis, keepdims=keepdims) * Tensor(w)).sum().backward()
        assert tx.grad.shape == x.shape
        assert_grads_close(
            lambda x_: float((getattr(x_, op)(axis=axis, keepdims=keepdims) * w).sum()),
            [x], [tx.grad])


class TestBackward:
    def test_five_op_chain_matches_fd(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 4)) + 2.0  # positive, away from kinks
        w = rng.standard_normal((4, 3))
        tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = T.sigmoid(T.linear(tx.abs(), tw, Tensor(np.zeros(3))))
        (out * out).mean().backward()

        def f(x_, w_):
            s = 1 / (1 + np.exp(-(np.abs(x_) @ w_)))
            return float((s * s).mean())

        assert_grads_close(f, [x, w], [tx.grad, tw.grad])

    def test_disconnected_tensor_keeps_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        x.sum().backward()
        assert y.grad is None

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_repeated_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        out = x.sum()
        out.backward()
        with pytest.raises(RuntimeError):
            out.backward()

    def test_grad_accumulates_across_graphs(self):
        x = Tensor(np.ones(3), requires_grad=True)
        x.sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full(3, 3.0))
        x.grad = None   # release, as Adam.zero_grad does between steps
        (x * 4.0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full(3, 4.0))

    def test_first_gradient_is_stored_as_handed_over(self):
        leaf = Tensor(np.ones(3), requires_grad=True)
        a = np.array([1.0, 2.0, 3.0])
        T.graph_node(np.asarray(3.0), (leaf,), lambda g: leaf.accumulate_grad(a)).backward()
        assert leaf.grad is a

    def test_a_later_gradient_leaves_an_array_shared_with_another_tensor_unchanged(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        w = np.array([1.0, -2.0, 3.0])
        ((x + y) * w).sum().backward()
        first = y.grad
        assert x.grad is first   # + hands its one gradient to both operands
        (x * 2.0).sum().backward()
        assert y.grad is first
        np.testing.assert_array_equal(first, w)
        np.testing.assert_array_equal(x.grad, w + 2.0)

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * 2.0
        (y * y).sum().backward()  # d/dx (2x)^2 = 8x
        np.testing.assert_allclose(x.grad, [24.0])


class TestGraphRelease:
    def test_consumer_closure_arrays_dead_before_producer_runs(self):
        x = Tensor(np.arange(1.0, 4.0), requires_grad=True)
        seen = []

        def build():
            # `saved` is held by the consumer's closure and nothing else
            saved = np.array([2.0, 3.0, 4.0])
            ref = weakref.ref(saved)

            def producer_fn(g):
                seen.append(ref() is None)
                x.accumulate_grad(g)

            def consumer_fn(g):
                p.accumulate_grad(g * saved)

            p = T.graph_node(x.data.copy(), (x,), producer_fn)
            return T.graph_node(p.data * saved, (p,), consumer_fn).sum()

        build().backward()
        assert seen == [True]
        np.testing.assert_array_equal(x.grad, [2.0, 3.0, 4.0])

    def test_caller_held_intermediate_keeps_its_gradient(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        h = x * 2.0
        root = (h * h).sum()
        root.backward()
        np.testing.assert_array_equal(h.grad, 2 * h.data)
        np.testing.assert_array_equal(x.grad, 8 * x.data)
        assert h._grad_fn is None and h._parents == ()
        with pytest.raises(RuntimeError):
            root.backward()


class TestDeterminism:
    def test_forward_bit_identical_across_runs(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 8, 8))
        k = rng.standard_normal((4, 3, 3, 3))

        def run():
            out = T.conv2d(Tensor(x), Tensor(k))
            return T.sigmoid(out).mean(axis=(2, 3)).data.copy()

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_float32_inputs_stay_float32(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        out = T.sigmoid(x * 2.0)
        assert out.dtype == np.float32


class TestGradcheckHelper:
    def test_a_node_that_drops_a_parents_gradient_fails_the_check(self):
        # x * y whose backward passes x its gradient and forgets y's
        def dropping_mul(tx, ty):
            def grad_fn(g):
                tx.accumulate_grad(g * ty.data)

            return T.graph_node(tx.data * ty.data, (tx, ty), grad_fn)

        rng = np.random.default_rng(15)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        tx, ty = Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)
        dropping_mul(tx, ty).sum().backward()
        assert tx.grad is not None and ty.grad is None

        def f(x_, y_):
            return float((x_ * y_).sum())

        assert_grads_close(lambda x_: f(x_, y), [x], [tx.grad])   # the one it passed is right
        with pytest.raises(AssertionError, match="input 1: no analytic gradient"):
            assert_grads_close(f, [x, y], [tx.grad, ty.grad])

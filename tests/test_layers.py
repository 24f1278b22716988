import numpy as np
import pytest

from lcfed import tensor as T
from lcfed.tensor import Tensor
from lcfed.layers import instance_norm, max_pool2x2, upsample_nearest2x, per_pixel_linear
from lcfed.model import SegmentationModel

from gradcheck import assert_grads_close

TINY = dict(channels=(2, 3, 4), classes=1)   # 8 px inputs


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
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 8, 4, 4)))
        out = instance_norm(x).data
        assert np.all(np.abs(out.mean(axis=(2, 3))) < 1e-6)
        assert np.all(np.abs(out.var(axis=(2, 3)) - 1.0) < 1e-4)

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
            o = (x_ - mu) / sd * g_ + b_
            return float((o * o).sum())

        assert_grads_close(f, [x, g, b], [tx.grad, tg.grad, tb.grad])

    def test_spatial_form_backward_matches_fd(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 2, 3, 3))
        tx = Tensor(x, requires_grad=True)
        out = instance_norm(tx)
        (out * out * 0.5).sum().backward()

        def f(x_):
            mu = x_.mean(axis=(2, 3), keepdims=True)
            sd = np.sqrt(x_.var(axis=(2, 3), keepdims=True) + 1e-5)
            o = (x_ - mu) / sd
            return float((o * o * 0.5).sum())

        assert_grads_close(f, [x], [tx.grad])

    @pytest.mark.parametrize("affine", [False, True])
    def test_channel_major_input_backward_matches_fd(self, affine):
        # the layout conv2d returns: a (B, C, H, W) view of (C, B, H, W) memory
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 3, 4))
        view = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        gam, bet = rng.standard_normal(3), rng.standard_normal(3)
        w = rng.standard_normal(x.shape)
        tx = Tensor(view, requires_grad=True)
        tg, tb = Tensor(gam, requires_grad=True), Tensor(bet, requires_grad=True)
        out = instance_norm(tx, tg, tb) if affine else instance_norm(tx)
        (out * out * Tensor(w)).sum().backward()

        def f(x_, g_, b_):
            mu = x_.mean(axis=(2, 3), keepdims=True)
            o = (x_ - mu) / np.sqrt(x_.var(axis=(2, 3), keepdims=True) + 1e-5)
            if affine:
                o = o * g_[None, :, None, None] + b_[None, :, None, None]
            return float((o * o * w).sum())

        grads = [tx.grad, tg.grad, tb.grad] if affine else [tx.grad, None, None]
        assert_grads_close(f, [x, gam, bet], grads)

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
        with pytest.raises(ValueError):
            instance_norm(Tensor(np.ones((2, 1))))
        with pytest.raises(ValueError):
            instance_norm(Tensor(np.ones((2, 3, 1, 1))))


class TestResampling:
    def test_down_of_up_is_identity(self):
        rng = np.random.default_rng(3)
        x = np.abs(rng.standard_normal((2, 3, 4, 4)))
        out = max_pool2x2(upsample_nearest2x(Tensor(x)))
        np.testing.assert_array_equal(out.data, x)

    def test_up_doubles_spatial_dims(self):
        out = upsample_nearest2x(Tensor(np.ones((1, 2, 5, 7))))
        assert out.shape == (1, 2, 10, 14)

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
        upsample_nearest2x(tx).sum().backward()
        np.testing.assert_array_equal(tx.grad, np.full((1, 1, 2, 2), 4.0))

    def test_upsample_backward_matches_block_reshape_sum(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 4, 5))
        g = rng.standard_normal((2, 3, 8, 10))
        tx = Tensor(x, requires_grad=True)
        (upsample_nearest2x(tx) * Tensor(g)).sum().backward()
        blocks = g.reshape(2, 3, 4, 2, 5, 2).sum(axis=(3, 5))
        np.testing.assert_allclose(tx.grad, blocks, rtol=1e-14, atol=1e-14)


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
        conv = T.conv2d(Tensor(x), Tensor(w.T.reshape(3, 5, 1, 1)), Tensor(b))
        np.testing.assert_allclose(out.data, conv.data, rtol=1e-12)

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

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            per_pixel_linear(Tensor(np.ones((1, 3, 2, 2))), Tensor(np.ones((4, 2))),
                             Tensor(np.zeros(2)))


class TestParameterNames:
    def test_names_are_unique_and_say_where_each_parameter_sits(self):
        model = SegmentationModel(**TINY, n_sites=3, rng=np.random.default_rng(9))
        names = [n for n, _, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert {n.split(".", 1)[0] for n in names} == {
            "enc0", "enc1", "enc2", "up0", "dec0", "up1", "dec1", "pcsgen",
            "head_coarse", "head_calib"}
        assert [n for n in names if n.startswith("head_")] == [
            "head_coarse.w", "head_coarse.b", "head_calib.w", "head_calib.b"]

    def test_without_pcs_the_generator_is_left_out_and_the_rest_keeps_its_numbers(self):
        full = SegmentationModel(**TINY, n_sites=3, rng=np.random.default_rng(9))
        lean = SegmentationModel(**TINY, n_sites=3, rng=np.random.default_rng(9), pcs=False)
        assert lean.pcs_gen is None
        kept = {n: a for n, a in full.get_params().items() if not n.startswith("pcsgen.")}
        assert len(kept) < len(full.get_params())
        got = lean.get_params()
        assert list(got) == list(kept)
        for n, a in kept.items():
            np.testing.assert_array_equal(got[n], a)


class TestModelForward:
    def test_shapes_and_range(self):
        model = SegmentationModel(**TINY, n_sites=2, rng=np.random.default_rng(10))
        x = Tensor(np.random.default_rng(11).random((2, 1, 8, 8)))
        skips, f = model.encode(x)
        assert f.shape == (2, 4, 2, 2)
        assert [s.shape for s in skips] == [(2, 2, 8, 8), (2, 3, 4, 4)]
        f_hat = model.decode(f, skips)
        assert f_hat.shape == (2, 2, 8, 8)
        s = model.coarse_map(f_hat)
        assert s.shape == (2, 1, 8, 8)
        assert np.all((s.data > 0) & (s.data < 1))

    def test_load_get_roundtrip(self):
        rng = np.random.default_rng(12)
        m1 = SegmentationModel(**TINY, n_sites=2, rng=np.random.default_rng(1))
        m2 = SegmentationModel(**TINY, n_sites=2, rng=np.random.default_rng(2))
        params = m1.get_params()
        m2.load_params(params)
        x = Tensor(rng.random((1, 1, 8, 8)))
        s1, f1 = m1.encode(x)
        s2, f2 = m2.encode(x)
        np.testing.assert_array_equal(f1.data, f2.data)

    def test_conv_blocks_have_no_bias_projections_keep_theirs(self):
        names = [n for n, _, _ in SegmentationModel(**TINY, n_sites=2).named_parameters()]
        assert not [n for n in names if n.endswith("conv.b")]
        assert "enc0.conv.w" in names and "up0.b" in names

    def test_load_unknown_name_rejected(self):
        m = SegmentationModel(**TINY, n_sites=2, rng=np.random.default_rng(3))
        with pytest.raises(ValueError, match="enc0.conv.b"):
            m.load_params({"enc0.conv.b": np.zeros(2)})

    def test_load_shape_mismatch_rejected(self):
        m = SegmentationModel(**TINY, n_sites=2, rng=np.random.default_rng(3))
        with pytest.raises(ValueError):
            m.load_params({"enc0.conv.w": np.zeros((1, 1, 3, 3))})

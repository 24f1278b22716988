import numpy as np
import pytest

from lcfed import hc
from lcfed.hc import disagreement_map, evaluate_heads, gaussian_spread, head_calibration, nms2d
from lcfed.layers import per_pixel_linear
from lcfed.tensor import Tensor, sigmoid

from gradcheck import assert_grads_close


def window_max_loop(u, delta):
    """Brute-force window-max oracle with border clipping."""
    r = delta // 2
    h, w = u.shape
    out = np.zeros_like(u)
    for i in range(h):
        for j in range(w):
            window = u[max(0, i - r):i + r + 1, max(0, j - r):j + r + 1]
            if u[i, j] >= window.max():
                out[i, j] = u[i, j]
    return out


def gaussian_loop(u, size, sigma):
    """Direct-loop correlation with the peak-normalized kernel, zero padding."""
    r = size // 2
    h, w = u.shape
    out = np.zeros_like(u)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < h and 0 <= jj < w:
                        acc += np.exp(-(di * di + dj * dj) / (2 * sigma * sigma)) * u[ii, jj]
            out[i, j] = acc
    return out


def random_heads(k, c, n, seed=0):
    """K random heads stacked side by side, as the server relays them."""
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal((c, n)) for _ in range(k)]
    biases = [rng.standard_normal(n) for _ in range(k)]
    return np.concatenate(weights, axis=1), np.concatenate(biases)


def head_of(heads, i, n):
    """Site i's (C, N) weight and (N,) bias: columns i*N..(i+1)*N-1."""
    w, b = heads
    return w[:, i * n:(i + 1) * n], b[i * n:(i + 1) * n]


def live_head(w, b=None):
    """A local coarse head's live (C, N) weight and (N,) bias tensors; the
    bias defaults to zeros, as the model initializes it."""
    b = np.zeros(w.shape[1]) if b is None else b
    return Tensor(w.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)


def local_head_from(heads, k, n):
    """Live (weight, bias) tensors holding site k's relayed head."""
    return live_head(*head_of(heads, k, n))


def stacked(*arrays):
    """(B, K, N, H, W) maps tensor from K arrays of shape (B, N, H, W)."""
    return Tensor(np.stack(arrays, axis=1), requires_grad=True)


def disagreement_loop(maps, k):
    """Per-site oracle: sqrt of the mean squared deviation from the K-1 others."""
    others = [maps[:, i] for i in range(maps.shape[1]) if i != k]
    return np.sqrt(sum((maps[:, k] - m) ** 2 for m in others) / len(others))


class TestEvaluateHeads:
    def test_identical_heads_identical_maps(self):
        w, b = random_heads(1, 4, 2, seed=1)
        heads = np.tile(w, 3), np.tile(b, 3)
        f = Tensor(np.random.default_rng(2).standard_normal((2, 4, 5, 5)))
        maps = evaluate_heads(f, heads, 1, *local_head_from(heads, 1, 2)).data
        assert maps.shape == (2, 3, 2, 5, 5)
        np.testing.assert_array_equal(maps[:, 0], maps[:, 1])
        np.testing.assert_array_equal(maps[:, 1], maps[:, 2])

    def test_matches_per_pixel_linear_oracle(self):
        for k in (0, 2):
            self.check_values_and_gradients_against_per_head_calls(k)

    @staticmethod
    def check_values_and_gradients_against_per_head_calls(k):
        # one stacked GEMM against one per_pixel_linear per head, the foreign
        # heads constant and the local head live in both
        rng = np.random.default_rng(3)
        heads = random_heads(3, 4, 2, seed=4)
        f_data = rng.standard_normal((2, 4, 5, 5))
        g = rng.standard_normal((2, 3, 2, 5, 5))

        w0 = np.random.default_rng(5).standard_normal((4, 2))
        (wa, ba), fa = live_head(w0), Tensor(f_data, requires_grad=True)
        maps = evaluate_heads(fa, heads, k, wa, ba)
        (maps * Tensor(g)).sum().backward()

        (wb, bb), fb = live_head(w0), Tensor(f_data, requires_grad=True)
        total = None
        for i in range(3):
            w, b = ((wb, bb) if i == k
                    else map(Tensor, head_of(heads, i, 2)))
            ref = sigmoid(per_pixel_linear(fb, w, b))
            np.testing.assert_allclose(maps.data[:, i], ref.data, rtol=1e-14)
            term = (ref * Tensor(g[:, i])).sum()
            total = term if total is None else total + term
        total.backward()

        for a, b in ((fa, fb), (wa, wb), (ba, bb)):
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-12, atol=1e-14)

    def test_local_head_trains_foreign_heads_do_not(self, monkeypatch):
        rng = np.random.default_rng(6)
        heads = random_heads(3, 4, 1, seed=7)
        weight, bias = live_head(rng.standard_normal((4, 1)))
        parts = []
        cat = hc.concat
        monkeypatch.setattr(hc, "concat", lambda ts, axis: parts.extend(ts) or cat(ts, axis=axis))
        f = Tensor(rng.standard_normal((1, 4, 5, 5)), requires_grad=True)
        maps = evaluate_heads(f, heads, 1, weight, bias)
        disagreement_map(maps, 1).sum().backward()
        foreign = [t for t in parts if t is not weight and t is not bias]
        assert len(foreign) == 4 and all(t.grad is None for t in foreign)
        assert np.any(weight.grad)
        assert np.all(np.isfinite(f.grad)) and np.any(f.grad)


class TestDisagreementMap:
    def test_all_equal_maps_give_zero(self):
        m = np.random.default_rng(7).random((1, 2, 4, 4))
        u = disagreement_map(stacked(m, m, m), 0)
        np.testing.assert_array_equal(u.data, np.zeros((1, 2, 4, 4)))

    def test_two_sites_hand_case(self):
        u = disagreement_map(stacked(np.ones((1, 1, 2, 2)), np.zeros((1, 1, 2, 2))), 0)
        np.testing.assert_array_equal(u.data, np.ones((1, 1, 2, 2)))

    def test_three_sites_hand_case(self):
        u = disagreement_map(stacked(np.full((1, 1, 1, 1), 0.5), np.zeros((1, 1, 1, 1)),
                                     np.ones((1, 1, 1, 1))), 0)
        assert u.data[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_single_map_gives_zero(self):
        m = np.random.default_rng(8).random((1, 1, 3, 3))
        np.testing.assert_array_equal(disagreement_map(stacked(m), 0).data, np.zeros((1, 1, 3, 3)))

    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_matches_per_site_loop(self, k):
        maps = np.random.default_rng(9).random((2, 4, 2, 4, 4))
        u = disagreement_map(Tensor(maps), k).data
        np.testing.assert_allclose(u, disagreement_loop(maps, k), rtol=1e-14)

    def test_invariant_to_other_site_ordering(self):
        rng = np.random.default_rng(9)
        maps = [rng.random((1, 2, 4, 4)) for _ in range(4)]
        u1 = disagreement_map(stacked(*maps), 1)
        u2 = disagreement_map(stacked(maps[1], maps[3], maps[0], maps[2]), 0)
        np.testing.assert_allclose(u1.data, u2.data, rtol=1e-15)

    def test_nonnegative_and_zero_iff_agreement(self):
        rng = np.random.default_rng(10)
        maps = [rng.random((1, 1, 4, 4)) for _ in range(3)]
        u = disagreement_map(stacked(*maps), 2).data
        assert np.all(u >= 0)
        agree = np.isclose(maps[2], maps[0]) & np.isclose(maps[2], maps[1])
        assert np.array_equal(u == 0, agree)

    def test_backward_finite_at_full_agreement(self):
        m = np.random.default_rng(11).random((1, 1, 3, 3))
        maps = stacked(m, m)
        disagreement_map(maps, 0).sum().backward()
        np.testing.assert_array_equal(maps.grad, np.zeros((1, 2, 1, 3, 3)))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_gradient_matches_fd_including_agreement(self, k):
        # one in three pixels has every site agree (U = 0): there the
        # symmetric difference of the norm is 0, as is the clamped gradient
        rng = np.random.default_rng(12)
        maps = rng.random((2, 3, 2, 3, 3))
        agree = rng.random((2, 1, 2, 3, 3)) < 1 / 3
        maps = np.where(agree, maps[:, :1], maps)
        w = rng.standard_normal((2, 2, 3, 3))
        t = Tensor(maps, requires_grad=True)
        u = disagreement_map(t, k)
        assert np.any(u.data == 0) and np.any(u.data > 0)
        (u * Tensor(w)).sum().backward()
        assert_grads_close(lambda m: float((disagreement_loop(m, k) * w).sum()), [maps], [t.grad])


class TestNms:
    def test_delta_one_is_identity(self):
        u = Tensor(np.random.default_rng(12).random((1, 1, 5, 5)))
        np.testing.assert_array_equal(nms2d(u, 1).data, u.data)

    def test_single_peak_survives(self):
        data = np.zeros((1, 1, 9, 9))
        data[0, 0, 4, 4] = 2.0
        out = nms2d(Tensor(data), 11).data
        expected = np.zeros_like(data)
        expected[0, 0, 4, 4] = 2.0
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("delta", [3, 5, 11])
    def test_matches_bruteforce_oracle(self, delta):
        rng = np.random.default_rng(13)
        for _ in range(10):
            u = rng.random((16, 16))
            out = nms2d(Tensor(u.reshape(1, 1, 16, 16)), delta).data[0, 0]
            np.testing.assert_array_equal(out, window_max_loop(u, delta))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("delta", [1, 3, 13])
    def test_ties_match_bruteforce_oracle(self, delta, dtype):
        # three levels make plateaus of equal values; a 13-wide window
        # reaches past every border of the 9x11 map
        u = np.random.default_rng(16).integers(0, 3, size=(2, 3, 9, 11)).astype(dtype)
        out = nms2d(Tensor(u), delta).data
        assert out.dtype == dtype
        for b in range(2):
            for c in range(3):
                np.testing.assert_array_equal(out[b, c], window_max_loop(u[b, c], delta))

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        for delta in (3, 5, 11):
            u = Tensor(rng.random((2, 2, 12, 12)))
            once = nms2d(u, delta)
            twice = nms2d(once, delta)
            np.testing.assert_array_equal(once.data, twice.data)

    def test_never_increases_never_creates(self):
        rng = np.random.default_rng(15)
        u = rng.random((1, 1, 10, 10))
        u[0, 0, :3] = 0.0
        out = nms2d(Tensor(u), 5).data
        assert np.all(out <= u)
        assert np.all(out[u == 0] == 0)
        survivors = out > 0
        np.testing.assert_array_equal(out[survivors], u[survivors])

    def test_per_channel_independence(self):
        rng = np.random.default_rng(16)
        a, b = rng.random((8, 8)), rng.random((8, 8))
        stacked = np.stack([a, b])[None]
        out = nms2d(Tensor(stacked), 3).data
        np.testing.assert_array_equal(out[0, 0], nms2d(Tensor(a[None, None]), 3).data[0, 0])
        np.testing.assert_array_equal(out[0, 1], nms2d(Tensor(b[None, None]), 3).data[0, 0])

    def test_even_delta_rejected(self):
        with pytest.raises(ValueError):
            nms2d(Tensor(np.zeros((1, 1, 4, 4))), 4)

    def test_gradient_flows_to_survivors_only(self):
        data = np.zeros((1, 1, 5, 5))
        data[0, 0, 2, 2] = 1.0
        data[0, 0, 0, 0] = 0.5
        t = Tensor(data, requires_grad=True)
        nms2d(t, 5).sum().backward()
        expected = np.zeros_like(data)
        expected[0, 0, 2, 2] = 1.0  # the 0.5 is suppressed by the 5x5 window
        np.testing.assert_array_equal(t.grad, expected)


class TestGaussianSpread:
    def test_unit_impulse(self):
        sigma = 3.0
        data = np.zeros((1, 1, 9, 9))
        data[0, 0, 4, 4] = 1.0
        out = gaussian_spread(Tensor(data), 11, sigma).data[0, 0]
        assert out[4, 4] == pytest.approx(1.0, abs=1e-12)
        assert out[4, 5] == pytest.approx(np.exp(-1 / (2 * sigma ** 2)), abs=1e-12)
        assert out[3, 4] == pytest.approx(np.exp(-1 / (2 * sigma ** 2)), abs=1e-12)

    def test_zero_map(self):
        out = gaussian_spread(Tensor(np.zeros((1, 1, 6, 6))), 5, 2.0)
        np.testing.assert_array_equal(out.data, np.zeros((1, 1, 6, 6)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(17)
        for size, sigma in ((5, 1.5), (11, 3.0)):
            u = rng.random((8, 8))
            out = gaussian_spread(Tensor(u[None, None]), size, sigma).data[0, 0]
            assert np.max(np.abs(out - gaussian_loop(u, size, sigma))) < 1e-10

    def test_backward_is_self_adjoint_correlation(self):
        rng = np.random.default_rng(18)
        u = Tensor(rng.random((1, 1, 6, 6)), requires_grad=True)
        w = rng.random((1, 1, 6, 6))
        (gaussian_spread(u, 5, 2.0) * Tensor(w)).sum().backward()
        expected = gaussian_spread(Tensor(w), 5, 2.0).data
        np.testing.assert_allclose(u.grad, expected, rtol=1e-12)

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(19)
        u = Tensor(rng.random((2, 1, 6, 6)).astype(np.float32), requires_grad=True)
        w = rng.random(u.shape).astype(np.float32)
        out = gaussian_spread(u, 5, 2.0)
        (out * Tensor(w)).sum().backward()
        assert out.dtype == u.grad.dtype == np.float32
        for got, arg in ((out.data, u.data), (u.grad, w)):
            want = gaussian_spread(Tensor(arg.astype(np.float64)), 5, 2.0).data
            np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            gaussian_spread(Tensor(np.zeros((1, 1, 4, 4))), 4, 1.0)
        with pytest.raises(ValueError):
            gaussian_spread(Tensor(np.zeros((1, 1, 4, 4))), 5, 0.0)


class TestPermutationInvariance:
    def test_consistent_site_permutation_leaves_u_unchanged(self):
        rng = np.random.default_rng(22)
        heads = random_heads(4, 3, 1, seed=23)
        f = Tensor(rng.standard_normal((1, 3, 6, 6)))
        u_before = disagreement_map(evaluate_heads(f, heads, 2, *local_head_from(heads, 2, 1)), 2)

        perm = [3, 1, 0, 2]  # site 2 moves to position 3
        blocks = [head_of(heads, p, 1) for p in perm]
        permuted_heads = (np.concatenate([w for w, _ in blocks], axis=1),
                          np.concatenate([b for _, b in blocks]))
        k = perm.index(2)
        maps_p = evaluate_heads(f, permuted_heads, k, *local_head_from(permuted_heads, k, 1))
        np.testing.assert_allclose(u_before.data, disagreement_map(maps_p, k).data, rtol=1e-15)


class TestHeadCalibration:
    def test_coarse_map_is_local_slot(self):
        rng = np.random.default_rng(24)
        heads = random_heads(3, 4, 1, seed=25)
        weight, bias = live_head(rng.standard_normal((4, 1)))
        f = Tensor(rng.standard_normal((2, 4, 8, 8)))
        coarse, f_star = head_calibration(f, heads, 1, weight, bias, delta=3, size=5, sigma=1.0)
        np.testing.assert_allclose(coarse.data, sigmoid(per_pixel_linear(f, weight, bias)).data,
                                   rtol=1e-14)
        assert f_star.shape == f.shape

    def test_two_class_attention_is_averaged_over_the_classes(self, monkeypatch):
        a = np.zeros((1, 2, 2, 2))
        a[0, 0] = 1.0  # class 0 attends everywhere, class 1 nowhere: the mean is 0.5

        def spread(u, size, sigma):
            assert u.shape == a.shape
            return Tensor(a)

        monkeypatch.setattr(hc, "gaussian_spread", spread)
        heads = random_heads(2, 2, 2, seed=28)
        f = np.ones((1, 2, 2, 2))
        _, f_star = head_calibration(Tensor(f), heads, 0, *local_head_from(heads, 0, 2),
                                     delta=3, size=5, sigma=1.0)
        np.testing.assert_allclose(f_star.data, 1.5 * f)

    def test_one_site_leaves_the_feature_unchanged(self):
        # with no other head there is no disagreement, so the attention is 0
        rng = np.random.default_rng(29)
        heads = random_heads(1, 3, 2, seed=30)
        f = rng.standard_normal((2, 3, 6, 6))
        _, f_star = head_calibration(Tensor(f), heads, 0, *local_head_from(heads, 0, 2),
                                     delta=3, size=5, sigma=1.0)
        np.testing.assert_array_equal(f_star.data, f)

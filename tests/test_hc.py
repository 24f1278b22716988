import numpy as np
import pytest

from lcfed.hc import (
    HeadCollection, calibrate, disagreement_map, evaluate_heads,
    gaussian_spread, nms2d,
)
from lcfed.layers import PerPixelLinear, per_pixel_linear
from lcfed.tensor import Tensor, sigmoid


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
    rng = np.random.default_rng(seed)
    return HeadCollection(
        weights=[rng.standard_normal((c, n)) for _ in range(k)],
        biases=[rng.standard_normal(n) for _ in range(k)],
    )


class TestHeadCollection:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HeadCollection(weights=[np.zeros((3, 1)), np.zeros((4, 1))],
                           biases=[np.zeros(1), np.zeros(1)])

    def test_len(self):
        assert len(random_heads(3, 4, 1)) == 3


class TestEvaluateHeads:
    def test_identical_heads_identical_maps(self):
        heads = random_heads(1, 4, 2, seed=1)
        heads = HeadCollection(weights=[heads.weights[0]] * 3,
                               biases=[heads.biases[0]] * 3)
        f = Tensor(np.random.default_rng(2).standard_normal((2, 4, 5, 5)))
        maps = evaluate_heads(f, heads)
        assert len(maps) == 3
        np.testing.assert_array_equal(maps[0].data, maps[1].data)
        np.testing.assert_array_equal(maps[1].data, maps[2].data)

    def test_matches_per_pixel_linear_oracle(self):
        heads = random_heads(3, 4, 2, seed=3)
        f = Tensor(np.random.default_rng(4).standard_normal((1, 4, 5, 5)))
        maps = evaluate_heads(f, heads)
        for i in range(3):
            ref = sigmoid(per_pixel_linear(
                f, Tensor(heads.weights[i]), Tensor(heads.biases[i])))
            np.testing.assert_allclose(maps[i].data, ref.data, rtol=1e-14)

    def test_local_head_trains_foreign_heads_do_not(self):
        rng = np.random.default_rng(5)
        heads = random_heads(3, 4, 1, seed=6)
        local = PerPixelLinear(4, 1, rng)
        f = Tensor(rng.standard_normal((1, 4, 5, 5)), requires_grad=True)
        maps = evaluate_heads(f, heads, local_index=1, local_head=local)
        u = disagreement_map(maps, 1)
        u.sum().backward()
        assert np.any(local.weight.grad)
        assert np.all(np.isfinite(f.grad)) and np.any(f.grad)


class TestDisagreementMap:
    def test_all_equal_maps_give_zero(self):
        m = Tensor(np.random.default_rng(7).random((1, 2, 4, 4)))
        u = disagreement_map([m, m, m], 0)
        np.testing.assert_array_equal(u.data, np.zeros((1, 2, 4, 4)))

    def test_two_sites_hand_case(self):
        ones = Tensor(np.ones((1, 1, 2, 2)))
        zeros = Tensor(np.zeros((1, 1, 2, 2)))
        u = disagreement_map([ones, zeros], 0)
        np.testing.assert_array_equal(u.data, np.ones((1, 1, 2, 2)))

    def test_three_sites_hand_case(self):
        mk = Tensor(np.full((1, 1, 1, 1), 0.5))
        m0 = Tensor(np.zeros((1, 1, 1, 1)))
        m1 = Tensor(np.ones((1, 1, 1, 1)))
        u = disagreement_map([mk, m0, m1], 0)
        assert u.data[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_single_map_gives_zero(self):
        m = Tensor(np.random.default_rng(8).random((1, 1, 3, 3)))
        np.testing.assert_array_equal(disagreement_map([m], 0).data, np.zeros((1, 1, 3, 3)))

    def test_invariant_to_other_site_ordering(self):
        rng = np.random.default_rng(9)
        maps = [Tensor(rng.random((1, 2, 4, 4))) for _ in range(4)]
        u1 = disagreement_map(maps, 1)
        shuffled = [maps[1], maps[3], maps[0], maps[2]]
        u2 = disagreement_map(shuffled, 0)
        np.testing.assert_allclose(u1.data, u2.data, rtol=1e-15)

    def test_nonnegative_and_zero_iff_agreement(self):
        rng = np.random.default_rng(10)
        maps = [Tensor(rng.random((1, 1, 4, 4))) for _ in range(3)]
        u = disagreement_map(maps, 2).data
        assert np.all(u >= 0)
        agree = np.isclose(maps[2].data, maps[0].data) & np.isclose(maps[2].data, maps[1].data)
        assert np.array_equal(u == 0, agree)

    def test_backward_finite_at_full_agreement(self):
        m = Tensor(np.random.default_rng(11).random((1, 1, 3, 3)), requires_grad=True)
        u = disagreement_map([m, m * 1.0], 0)
        u.sum().backward()
        assert np.all(np.isfinite(m.grad))


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

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            gaussian_spread(Tensor(np.zeros((1, 1, 4, 4))), 4, 1.0)
        with pytest.raises(ValueError):
            gaussian_spread(Tensor(np.zeros((1, 1, 4, 4))), 5, 0.0)


class TestCalibrate:
    def test_zero_attention_is_identity(self):
        f = np.random.default_rng(19).standard_normal((2, 3, 4, 4))
        out = calibrate(Tensor(f), Tensor(np.zeros((2, 1, 4, 4))))
        np.testing.assert_allclose(out.data, f)

    def test_unit_attention_doubles(self):
        f = np.random.default_rng(20).standard_normal((2, 3, 4, 4))
        out = calibrate(Tensor(f), Tensor(np.ones((2, 1, 4, 4))))
        np.testing.assert_allclose(out.data, 2 * f)

    def test_nonnegative_attention_never_attenuates(self):
        rng = np.random.default_rng(21)
        f = rng.standard_normal((1, 3, 4, 4))
        a = rng.random((1, 2, 4, 4))
        out = calibrate(Tensor(f), Tensor(a)).data
        assert np.all(np.abs(out) >= np.abs(f) - 1e-15)

    def test_multiclass_attention_averages_channels(self):
        f = np.ones((1, 2, 2, 2))
        a = np.zeros((1, 2, 2, 2))
        a[0, 0] = 1.0  # mean over classes = 0.5
        out = calibrate(Tensor(f), Tensor(a))
        np.testing.assert_allclose(out.data, 1.5 * f)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ValueError):
            calibrate(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((1, 1, 5, 5))))


class TestPermutationInvariance:
    def test_consistent_site_permutation_leaves_u_unchanged(self):
        rng = np.random.default_rng(22)
        heads = random_heads(4, 3, 1, seed=23)
        f = Tensor(rng.standard_normal((1, 3, 6, 6)))
        maps = evaluate_heads(f, heads)
        u_before = disagreement_map(maps, 2)

        perm = [3, 1, 0, 2]  # site 2 moves to position 3
        permuted_heads = HeadCollection(
            weights=[heads.weights[p] for p in perm],
            biases=[heads.biases[p] for p in perm])
        maps_p = evaluate_heads(f, permuted_heads)
        u_after = disagreement_map(maps_p, perm.index(2))
        np.testing.assert_allclose(u_before.data, u_after.data, rtol=1e-15)

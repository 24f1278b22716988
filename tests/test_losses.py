import numpy as np
import pytest

from lcfed.losses import dice_loss, joint_loss
from lcfed.tensor import Tensor

from gradcheck import assert_grads_close


class TestDiceLoss:
    def test_perfect_prediction(self):
        g = np.zeros((1, 1, 4, 4))
        g[0, 0, 1:3, 1:3] = 1.0
        assert abs(dice_loss(Tensor(g.copy()), g).item()) < 1e-6

    def test_disjoint_prediction(self):
        s = np.zeros((1, 1, 4, 4))
        g = np.zeros((1, 1, 4, 4))
        s[0, 0, 0, 0] = 1.0
        g[0, 0, 3, 3] = 1.0
        assert dice_loss(Tensor(s), g).item() == pytest.approx(1.0, abs=1e-5)

    def test_half_confidence_hand_case(self):
        # G fills half the 4x4; S is 0.5 exactly on the target:
        # |S*G| = 4, |S| = 4, |G| = 8 -> loss = 1 - 8/12 = 1/3
        g = np.zeros((1, 1, 4, 4))
        g[0, 0, :2, :] = 1.0
        s = 0.5 * g
        assert dice_loss(Tensor(s), g).item() == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_both_empty_is_zero(self):
        z = np.zeros((1, 1, 4, 4))
        assert dice_loss(Tensor(z.copy()), z).item() == 0.0

    def test_range_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.random((2, 2, 5, 5))
            g = (rng.random((2, 2, 5, 5)) > 0.5).astype(float)
            val = dice_loss(Tensor(s), g).item()
            assert -1e-6 <= val <= 1.0 + 1e-6

    def test_spatial_permutation_symmetry(self):
        rng = np.random.default_rng(1)
        s = rng.random((1, 1, 4, 4))
        g = (rng.random((1, 1, 4, 4)) > 0.5).astype(float)
        perm = rng.permutation(16)
        s_p = s.reshape(-1)[perm].reshape(s.shape)
        g_p = g.reshape(-1)[perm].reshape(g.shape)
        assert dice_loss(Tensor(s), g).item() == pytest.approx(
            dice_loss(Tensor(s_p), g_p).item(), abs=1e-14)

    def test_macro_average_over_classes_and_batch(self):
        rng = np.random.default_rng(2)
        s = rng.random((2, 3, 4, 4))
        g = (rng.random((2, 3, 4, 4)) > 0.5).astype(float)
        whole = dice_loss(Tensor(s), g).item()
        pieces = [dice_loss(Tensor(s[b:b + 1, n:n + 1]), g[b:b + 1, n:n + 1]).item()
                  for b in range(2) for n in range(3)]
        assert whole == pytest.approx(np.mean(pieces), abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        s = rng.random((1, 1, 4, 4)) * 0.8 + 0.1
        g = (rng.random((1, 1, 4, 4)) > 0.5).astype(float)
        ts = Tensor(s, requires_grad=True)
        dice_loss(ts, g).backward()

        def f(s_):
            inter = (s_ * g).sum()
            return float(1 - (2 * inter + 1e-5) / (s_.sum() + g.sum() + 1e-5))

        assert_grads_close(f, [s], [ts.grad])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dice_loss(Tensor(np.zeros((1, 1, 4, 4))), np.zeros((1, 1, 5, 5)))


class TestJointLoss:
    def test_hand_case(self):
        lb = joint_loss(Tensor(0.5), Tensor(0.3), Tensor(-0.2), lam=0.1)
        assert lb.joint.item() == pytest.approx(0.78, abs=1e-12)

    def test_zero_lambda(self):
        lb = joint_loss(Tensor(0.4), Tensor(0.2), Tensor(-5.0), lam=0.0)
        assert lb.joint.item() == pytest.approx(0.6, abs=1e-15)

    def test_zero_con_independent_of_lambda(self):
        a = joint_loss(Tensor(0.4), Tensor(0.2), Tensor(0.0), lam=0.1).joint.item()
        b = joint_loss(Tensor(0.4), Tensor(0.2), Tensor(0.0), lam=7.0).joint.item()
        assert a == b

    def test_breakdown_invariant(self):
        lb = joint_loss(Tensor(0.25), Tensor(0.5), Tensor(-0.4), lam=0.1)
        v = lb.values()
        assert v["joint"] == pytest.approx(v["coarse"] + v["calib"] + 0.1 * v["con"], abs=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            joint_loss(Tensor(np.nan), Tensor(0.0), Tensor(0.0), lam=0.1)
        with pytest.raises(FloatingPointError):
            joint_loss(Tensor(0.0), Tensor(np.inf), Tensor(0.0), lam=0.1)

    def test_gradient_reaches_all_terms(self):
        c1 = Tensor(0.5, requires_grad=True)
        c2 = Tensor(0.3, requires_grad=True)
        c3 = Tensor(-0.2, requires_grad=True)
        joint_loss(c1, c2, c3, lam=0.1).joint.backward()
        assert c1.grad == 1.0 and c2.grad == 1.0
        assert c3.grad == pytest.approx(0.1)

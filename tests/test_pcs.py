import numpy as np
import pytest

from lcfed.pcs import (
    PCSGenerator, augment_embedding, contrast_from_gates, select_channels, site_contrast_loss,
)
from lcfed.tensor import Tensor


def make_gen(n_sites=3, channels=6, seed=0):
    return PCSGenerator(n_sites, channels, np.random.default_rng(seed))


class TestAugment:
    def test_gate_in_open_unit_interval(self):
        gen = make_gen()
        f = Tensor(np.random.default_rng(1).standard_normal((2, 6, 4, 4)))
        out = augment_embedding(gen, np.eye(3)[0], f).data
        assert out.shape == (2, 6)
        assert np.all((out > 0) & (out < 1))

    def test_different_sites_give_different_gates(self):
        gen = make_gen()
        f = Tensor(np.random.default_rng(2).standard_normal((1, 6, 4, 4)))
        a = augment_embedding(gen, np.eye(3)[0], f).data
        b = augment_embedding(gen, np.eye(3)[1], f).data
        assert not np.allclose(a, b)

    def test_zero_feature_depends_only_on_embedding_path(self):
        gen = make_gen()
        xi = np.eye(3)[1]
        a = augment_embedding(gen, xi, Tensor(np.zeros((1, 6, 4, 4)))).data
        b = augment_embedding(gen, xi, Tensor(np.zeros((3, 6, 8, 8)))).data
        np.testing.assert_allclose(a[0], b[0], rtol=1e-12)
        np.testing.assert_allclose(b[0], b[1], rtol=0)

    def test_embedding_length_mismatch(self):
        gen = make_gen(n_sites=3)
        f = Tensor(np.zeros((1, 6, 4, 4)))
        for xi in (np.eye(4)[0], np.eye(3)[:1]):
            with pytest.raises(ValueError, match="embedding shape"):
                augment_embedding(gen, xi, f)

    def test_channel_mismatch(self):
        gen = make_gen(channels=6)
        with pytest.raises(ValueError):
            augment_embedding(gen, np.eye(3)[0], Tensor(np.zeros((1, 5, 4, 4))))


class TestSelectChannels:
    def test_zero_gate_is_identity(self):
        f = np.random.default_rng(3).standard_normal((2, 4, 3, 3))
        out = select_channels(Tensor(f), Tensor(np.zeros((2, 4))))
        np.testing.assert_allclose(out.data, f)

    def test_unit_gate_doubles(self):
        f = np.random.default_rng(4).standard_normal((2, 4, 3, 3))
        out = select_channels(Tensor(f), Tensor(np.ones((2, 4))))
        np.testing.assert_allclose(out.data, 2 * f)

    def test_never_attenuates(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((2, 4, 3, 3))
        gate = rng.random((2, 4))
        out = select_channels(Tensor(f), Tensor(gate)).data
        assert np.all(np.abs(out) >= np.abs(f) - 1e-15)
        assert np.all(np.sign(out) == np.sign(f))
        fp = np.abs(f)
        outp = select_channels(Tensor(fp), Tensor(gate)).data
        assert np.all(outp >= fp - 1e-15) and np.all(outp <= 2 * fp + 1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            select_channels(Tensor(np.zeros((2, 4, 3, 3))), Tensor(np.zeros((2, 5))))


class TestSiteContrastLoss:
    def test_identical_gates_give_zero(self):
        gen = make_gen()
        # identical extension rows for every site force identical gates
        gen.fc1.weight.data[:] = gen.fc1.weight.data[0]
        f = Tensor(np.random.default_rng(6).standard_normal((2, 6, 4, 4)))
        loss = site_contrast_loss(gen, f, np.eye(3), 0)
        assert loss.item() == 0.0

    def test_hand_case(self):
        # K=3, gate_k=[1,0], others [0,0] and [1,1]: mean-abs gives 0.5 each
        xi_k = Tensor(np.array([[1.0, 0.0]]), requires_grad=True)
        others = [Tensor(np.array([[0.0, 0.0]])), Tensor(np.array([[1.0, 1.0]]))]
        loss = contrast_from_gates(xi_k, others)
        assert loss.item() == pytest.approx(-0.5, abs=1e-12)

    def test_single_site_is_zero(self):
        gen = make_gen(n_sites=1)
        f = Tensor(np.zeros((1, 6, 4, 4)))
        assert site_contrast_loss(gen, f, np.eye(1), 0).item() == 0.0
        assert site_contrast_loss(gen, f, np.eye(1), 0).requires_grad is False

    def test_loss_is_nonpositive(self):
        gen = make_gen(seed=7)
        f = Tensor(np.random.default_rng(8).standard_normal((2, 6, 4, 4)))
        for k in range(3):
            assert site_contrast_loss(gen, f, np.eye(3), k).item() <= 0.0

    def test_foreign_branches_get_no_gradient(self):
        gen = make_gen(seed=9)
        f = Tensor(np.random.default_rng(10).standard_normal((1, 6, 4, 4)), requires_grad=True)
        embeds = np.eye(3)
        gates = [augment_embedding(gen, xi, f) for xi in embeds]
        loss = contrast_from_gates(gates[0], [gates[1], gates[2]])
        loss.backward()
        for foreign in (gates[1], gates[2]):
            assert foreign.grad is None or not np.any(foreign.grad)
        assert np.any(gates[0].grad)
        assert np.all(np.isfinite(f.grad))

    def test_gradient_matches_local_branch_only(self):
        # parameters receive exactly the gradient of the detached-foreign objective
        gen_a = make_gen(seed=11)
        gen_b = make_gen(seed=11)
        f_data = np.random.default_rng(12).standard_normal((1, 6, 4, 4))
        embeds = np.eye(3)

        site_contrast_loss(gen_a, Tensor(f_data), embeds, 0).backward()

        # manual: gate_0 live, others fixed arrays
        gate_0 = augment_embedding(gen_b, embeds[0], Tensor(f_data))
        fixed = [augment_embedding(gen_b, embeds[i], Tensor(f_data)).data.copy()
                 for i in (1, 2)]
        total = None
        for arr in fixed:
            term = (gate_0 - Tensor(arr)).abs().mean()
            total = term if total is None else total + term
        (total * (-0.5)).backward()

        for (na, ta), (nb, tb) in zip(gen_a.parameters(), gen_b.parameters()):
            assert na == nb
            np.testing.assert_allclose(ta.grad, tb.grad, rtol=1e-10, atol=1e-12)


class TestProperties:
    def test_gates_pairwise_distinct_at_random_init(self):
        gen = make_gen(n_sites=4, channels=8, seed=13)
        f = Tensor(np.random.default_rng(14).standard_normal((1, 8, 4, 4)))
        gates = [augment_embedding(gen, xi, f).data for xi in np.eye(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(gates[i], gates[j])

    def test_contrast_step_does_not_decrease_distance(self):
        # One small descent step on 0.1 * L_con must not shrink the mean gap
        # between gate k and the foreign gates it was pushed away from (the
        # foreign gates are constants of the step, per stop-gradient).
        for seed in range(5):
            gen = make_gen(n_sites=3, channels=6, seed=seed)
            f_data = np.random.default_rng(100 + seed).standard_normal((2, 6, 4, 4))
            embeds = np.eye(3)

            fixed = [augment_embedding(gen, embeds[i], Tensor(f_data)).data for i in (1, 2)]

            def mean_distance():
                gate_k = augment_embedding(gen, embeds[0], Tensor(f_data)).data
                return np.mean([np.abs(gate_k - g).mean() for g in fixed])

            before = mean_distance()
            loss = site_contrast_loss(gen, Tensor(f_data), embeds, 0) * 0.1
            loss.backward()
            for _, t in gen.parameters():
                t.data -= 1e-3 * t.grad
                t.zero_grad()
            assert mean_distance() >= before - 1e-12

import numpy as np
import pytest

from lcfed.layers import instance_norm
from lcfed.pcs import augment_embedding, generator_params, site_contrast_loss
from lcfed.tensor import Tensor, concat, linear, sigmoid


def make_gen(n_sites=3, channels=6, seed=0):
    """The generator's live tensors, named as `generator_params` names them."""
    arrays = generator_params(n_sites, channels, np.random.default_rng(seed))
    return {n: Tensor(a, requires_grad=True) for n, a in arrays.items()}


def gate_loop(gen, k, f):
    """Per-site oracle: site k's gate from its own B one-hot rows, through
    fc1 -> instance norm and relu (one node) -> fc2, then the fusion FC over
    [descriptor, extension]."""
    g = {n.removeprefix("pcsgen."): t for n, t in gen.items()}
    n_sites = g["fc1.w"].shape[0]
    rows = Tensor(np.tile(np.eye(n_sites, dtype=f.dtype)[k], (f.shape[0], 1)))
    hidden = instance_norm(linear(rows, g["fc1.w"], g["fc1.b"]), g["norm.g"], g["norm.o"])
    extended = linear(hidden, g["fc2.w"], g["fc2.b"])
    return sigmoid(linear(concat([f.mean(axis=(2, 3)), extended], axis=1),
                          g["fuse.w"], g["fuse.b"]))


class TestGeneratorParams:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_names_shapes_and_he_draws_in_order(self, dtype):
        arrays = generator_params(3, 6, np.random.default_rng(0), dtype)
        assert [(n, a.shape) for n, a in arrays.items()] == [
            ("pcsgen.fc1.w", (3, 6)), ("pcsgen.fc1.b", (6,)), ("pcsgen.norm.g", (6,)),
            ("pcsgen.norm.o", (6,)), ("pcsgen.fc2.w", (6, 6)), ("pcsgen.fc2.b", (6,)),
            ("pcsgen.fuse.w", (12, 6)), ("pcsgen.fuse.b", (6,))]
        assert all(a.dtype == dtype for a in arrays.values())
        rng = np.random.default_rng(0)
        for name, cin in (("fc1.w", 3), ("fc2.w", 6), ("fuse.w", 12)):
            drawn = (rng.standard_normal((cin, 6)) * np.sqrt(2.0 / cin)).astype(dtype)
            np.testing.assert_array_equal(arrays[f"pcsgen.{name}"], drawn)
        for name in ("fc1.b", "norm.o", "fc2.b", "fuse.b"):
            np.testing.assert_array_equal(arrays[f"pcsgen.{name}"], np.zeros(6))
        np.testing.assert_array_equal(arrays["pcsgen.norm.g"], np.ones(6))


class TestAugment:
    def test_gate_in_open_unit_interval(self):
        gen = make_gen()
        f = Tensor(np.random.default_rng(1).standard_normal((2, 6, 4, 4)))
        out = augment_embedding(gen, f).data
        assert out.shape == (3, 2, 6)
        assert np.all((out > 0) & (out < 1))

    def test_different_sites_give_different_gates(self):
        gen = make_gen()
        f = Tensor(np.random.default_rng(2).standard_normal((1, 6, 4, 4)))
        gates = augment_embedding(gen, f).data
        assert not np.allclose(gates[0], gates[1])

    def test_zero_feature_depends_only_on_embedding_path(self):
        gen = make_gen()
        a = augment_embedding(gen, Tensor(np.zeros((1, 6, 4, 4)))).data[1]
        b = augment_embedding(gen, Tensor(np.zeros((3, 6, 8, 8)))).data[1]
        np.testing.assert_allclose(a[0], b[0], rtol=1e-12)
        np.testing.assert_allclose(b[0], b[1], rtol=0)

    @pytest.mark.parametrize("n_sites,batch", [(1, 2), (3, 1), (4, 3)])
    def test_matches_per_site_loop(self, n_sites, batch):
        gen = make_gen(n_sites=n_sites, seed=3)
        f = Tensor(np.random.default_rng(4).standard_normal((batch, 6, 4, 4)))
        gates = augment_embedding(gen, f).data
        assert gates.shape == (n_sites, batch, 6)
        for k in range(n_sites):
            np.testing.assert_allclose(gates[k], gate_loop(gen, k, f).data, rtol=1e-14, atol=0)

    def test_channel_mismatch(self):
        gen = make_gen(channels=6)
        with pytest.raises(ValueError):
            augment_embedding(gen, Tensor(np.zeros((1, 5, 4, 4))))


class TestSiteContrastLoss:
    def test_identical_gates_give_zero(self):
        gen = make_gen()
        # identical extension rows for every site force identical gates
        gen["pcsgen.fc1.w"].data[:] = gen["pcsgen.fc1.w"].data[0]
        f = Tensor(np.random.default_rng(6).standard_normal((2, 6, 4, 4)))
        loss = site_contrast_loss(augment_embedding(gen, f), 0)
        assert loss.item() == 0.0

    def test_hand_case(self):
        # K=3, gates [1,0], [0,0], [1,1]: the mean-abs distances from gate 0
        # to the others are 0.5 and 0.5; from gates 1 and 2, 0.5 and 1
        gates = Tensor(np.array([[[1.0, 0.0]], [[0.0, 0.0]], [[1.0, 1.0]]]), requires_grad=True)
        for k, expected in ((0, -0.5), (1, -0.75), (2, -0.75)):
            assert site_contrast_loss(gates, k).item() == pytest.approx(expected, abs=1e-12)

    def test_single_site_is_zero(self):
        gen = make_gen(n_sites=1)
        f = Tensor(np.zeros((1, 6, 4, 4)))
        loss = site_contrast_loss(augment_embedding(gen, f), 0)
        assert loss.item() == 0.0
        assert loss.requires_grad is False

    def test_loss_is_nonpositive(self):
        gen = make_gen(seed=7)
        f = Tensor(np.random.default_rng(8).standard_normal((2, 6, 4, 4)))
        for k in range(3):
            assert site_contrast_loss(augment_embedding(gen, f), k).item() <= 0.0

    def test_foreign_branches_get_no_gradient(self):
        gen = make_gen(seed=9)
        for k in range(3):
            f = Tensor(np.random.default_rng(10).standard_normal((1, 6, 4, 4)), requires_grad=True)
            gates = augment_embedding(gen, f)
            site_contrast_loss(gates, k).backward()
            for i in range(3):
                assert np.any(gates.grad[i]) == (i == k)
            assert np.all(np.isfinite(f.grad))

    def test_gradient_matches_local_branch_only(self):
        for k in (0, 2):
            self.check_gradient_matches_local_branch_only(k)

    @staticmethod
    def check_gradient_matches_local_branch_only(k):
        # parameters and feature receive exactly the gradient of the
        # detached-foreign objective, built here from per-site gates
        gen_a = make_gen(seed=11)
        gen_b = make_gen(seed=11)
        f_data = np.random.default_rng(12).standard_normal((2, 6, 4, 4))
        fa = Tensor(f_data, requires_grad=True)
        loss_a = site_contrast_loss(augment_embedding(gen_a, fa), k)
        loss_a.backward()

        fb = Tensor(f_data, requires_grad=True)
        gate_k = gate_loop(gen_b, k, fb)
        fixed = [gate_loop(gen_b, i, Tensor(f_data)).data.copy() for i in range(3) if i != k]
        total = None
        for arr in fixed:
            term = (gate_k - Tensor(arr)).abs().mean()
            total = term if total is None else total + term
        loss_b = total * (-0.5)
        loss_b.backward()

        assert loss_a.item() == pytest.approx(loss_b.item(), rel=1e-14)
        np.testing.assert_allclose(fa.grad, fb.grad, rtol=1e-10, atol=1e-15)
        for (na, ta), (nb, tb) in zip(gen_a.items(), gen_b.items(), strict=True):
            assert na == nb
            np.testing.assert_allclose(ta.grad, tb.grad, rtol=1e-10, atol=1e-15)


class TestProperties:
    def test_gates_pairwise_distinct_at_random_init(self):
        gen = make_gen(n_sites=4, channels=8, seed=13)
        f = Tensor(np.random.default_rng(14).standard_normal((1, 8, 4, 4)))
        gates = augment_embedding(gen, f).data
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

            fixed = augment_embedding(gen, Tensor(f_data)).data[1:].copy()

            def mean_distance():
                gate_k = augment_embedding(gen, Tensor(f_data)).data[0]
                return np.mean([np.abs(gate_k - g).mean() for g in fixed])

            before = mean_distance()
            loss = site_contrast_loss(augment_embedding(gen, Tensor(f_data)), 0) * 0.1
            loss.backward()
            for t in gen.values():
                t.data -= 1e-3 * t.grad
                t.grad = None
            assert mean_distance() >= before - 1e-12

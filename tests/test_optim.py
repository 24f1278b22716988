import numpy as np

from lcfed.optim import Adam
from lcfed.tensor import Tensor


def params(*values):
    return [(f"p{i}", Tensor(np.array(v, dtype=np.float64), requires_grad=True))
            for i, v in enumerate(values)]


class TestStep:
    def test_two_steps_by_hand_and_a_parameter_without_gradient_is_skipped(self):
        named = params([1.0, -2.0], [3.0])
        (_, p), (_, q) = named
        q.grad = None
        opt = Adam(named, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)

        g1 = np.array([0.5, -0.1])
        p.grad = g1.copy()
        opt.step()
        # first step: m = 0.1 g, v = 0.001 g^2, and bias correction undoes both
        m1, v1 = 0.1 * g1, 0.001 * g1 * g1
        p1 = np.array([1.0, -2.0]) - 0.1 * (m1 / 0.1) / (np.sqrt(v1 / 0.001) + 1e-8)
        np.testing.assert_allclose(p.data, p1, rtol=1e-14, atol=0)
        np.testing.assert_allclose(p.data, [0.9, -1.9], rtol=1e-7)   # lr * sign(g)
        np.testing.assert_allclose(opt.m["p0"], m1, rtol=1e-14)
        np.testing.assert_allclose(opt.v["p0"], v1, rtol=1e-14)

        g2 = np.array([-0.5, 0.3])
        p.grad = g2.copy()
        opt.step()
        m2 = 0.9 * m1 + 0.1 * g2
        v2 = 0.999 * v1 + 0.001 * g2 * g2
        p2 = p1 - 0.1 * (m2 / (1 - 0.9 ** 2)) / (np.sqrt(v2 / (1 - 0.999 ** 2)) + 1e-8)
        np.testing.assert_allclose(p.data, p2, rtol=1e-14, atol=0)

        assert opt.t == 2
        assert q.grad is None
        np.testing.assert_array_equal(q.data, [3.0])
        np.testing.assert_array_equal(opt.m["p1"], [0.0])
        np.testing.assert_array_equal(opt.v["p1"], [0.0])

    def test_zero_grad_zeroes_every_gradient(self):
        named = params([1.0], [2.0])
        for _, t in named:
            t.grad = np.ones(1)
        Adam(named).zero_grad()
        for _, t in named:
            np.testing.assert_array_equal(t.grad, [0.0])


class TestStateDict:
    def test_round_trip_then_continues_bit_identically(self):
        rng = np.random.default_rng(0)
        start = [rng.standard_normal((3, 2)), rng.standard_normal(4)]
        grads = [[rng.standard_normal(a.shape) for a in start] for _ in range(4)]

        def stepped(opt, named, gs):
            for (_, t), g in zip(named, gs):
                t.grad = g.copy()
            opt.step()

        a_named = params(*start)
        a = Adam(a_named, lr=1e-2)
        for gs in grads[:2]:
            stepped(a, a_named, gs)
        saved = a.state_dict()
        saved_values = [t.data.copy() for _, t in a_named]
        stepped(a, a_named, grads[2])
        assert saved["t"] == 2
        assert not np.array_equal(saved["m"]["p0"], a.m["p0"])   # a copy, not a view

        b_named = params(*saved_values)
        b = Adam(b_named, lr=1e-2)
        b.load_state_dict(saved)
        stepped(b, b_named, grads[2])
        for gs in grads[3:]:
            stepped(a, a_named, gs)
            stepped(b, b_named, gs)
        assert b.t == a.t == 4
        for (_, ta), (_, tb) in zip(a_named, b_named):
            assert ta.data.tobytes() == tb.data.tobytes()
        for name in a.m:
            assert a.m[name].tobytes() == b.m[name].tobytes()
            assert a.v[name].tobytes() == b.v[name].tobytes()

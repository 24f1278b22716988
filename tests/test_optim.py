import numpy as np
import pytest

from lcfed.optim import BETA1, BETA2, EPS, Adam
from lcfed.tensor import Tensor


def params(*values):
    return [(f"p{i}", Tensor(np.array(v, dtype=np.float64), requires_grad=True))
            for i, v in enumerate(values)]


def zero_state(named) -> dict:
    return {"t": 0, "m": {n: np.zeros_like(t.data) for n, t in named},
            "v": {n: np.zeros_like(t.data) for n, t in named}}


class TestStep:
    def test_two_steps_by_hand_and_a_parameter_without_gradient_is_skipped(self):
        named = params([1.0, -2.0], [3.0])
        (_, p), (_, q) = named
        q.grad = None
        opt = Adam(named, lr=0.1)   # beta1 0.9, beta2 0.999, eps 1e-8
        state = zero_state(named)

        g1 = np.array([0.5, -0.1])
        p.grad = g1.copy()
        opt.step(state)
        # first step: m = 0.1 g, v = 0.001 g^2, and bias correction undoes both
        m1, v1 = 0.1 * g1, 0.001 * g1 * g1
        p1 = np.array([1.0, -2.0]) - 0.1 * (m1 / 0.1) / (np.sqrt(v1 / 0.001) + 1e-8)
        np.testing.assert_allclose(p.data, p1, rtol=1e-14, atol=0)
        np.testing.assert_allclose(p.data, [0.9, -1.9], rtol=1e-7)   # lr * sign(g)
        np.testing.assert_allclose(state["m"]["p0"], m1, rtol=1e-14)
        np.testing.assert_allclose(state["v"]["p0"], v1, rtol=1e-14)

        g2 = np.array([-0.5, 0.3])
        p.grad = g2.copy()
        opt.step(state)
        m2 = 0.9 * m1 + 0.1 * g2
        v2 = 0.999 * v1 + 0.001 * g2 * g2
        p2 = p1 - 0.1 * (m2 / (1 - 0.9 ** 2)) / (np.sqrt(v2 / (1 - 0.999 ** 2)) + 1e-8)
        np.testing.assert_allclose(p.data, p2, rtol=1e-14, atol=0)
        np.testing.assert_allclose(state["m"]["p0"], m2, rtol=1e-14)
        np.testing.assert_allclose(state["v"]["p0"], v2, rtol=1e-14)

        assert state["t"] == 2
        assert q.grad is None
        np.testing.assert_array_equal(q.data, [3.0])
        np.testing.assert_array_equal(state["m"]["p1"], [0.0])
        np.testing.assert_array_equal(state["v"]["p1"], [0.0])

    def test_step_reads_a_read_only_broadcast_gradient_and_leaves_it_as_is(self):
        named = params([[1.0, -2.0, 3.0], [0.5, 0.0, -1.0]])
        (_, p), = named
        p.sum(axis=1).sum().backward()
        g = p.grad
        assert not g.flags.writeable   # stored as sum(axis=1) handed it over
        opt = Adam(named, lr=0.1)   # beta1 0.9, beta2 0.999, eps 1e-8
        state = zero_state(named)
        opt.step(state)
        # first step with g = 1: m = 0.1, v = 0.001, so each entry moves by lr / (1 + eps)
        np.testing.assert_allclose(
            p.data, np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -1.0]]) - 0.1 / (1 + 1e-8),
            rtol=1e-14, atol=1e-16)
        np.testing.assert_array_equal(state["m"]["p0"], np.full((2, 3), 1 - 0.9))
        assert p.grad is g
        np.testing.assert_array_equal(g, np.ones((2, 3)))

    def test_zero_grad_zeroes_every_gradient(self):
        named = params([1.0], [2.0])
        for _, t in named:
            t.grad = np.ones(1)
        Adam(named).zero_grad()
        # a released gradient is a zero one: step skips it
        assert all(t.grad is None for _, t in named)


def in_place_step(params: list, grads: list, state: dict, lr: float):
    """Adam as it once wrote its arrays: every parameter and moment in place."""
    state["t"] += 1
    bias1 = 1.0 - BETA1 ** state["t"]
    bias2 = 1.0 - BETA2 ** state["t"]
    for i, (p, g) in enumerate(zip(params, grads)):
        m, v = state["m"][f"p{i}"], state["v"][f"p{i}"]
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * (g * g)
        p -= lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)


def read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_two_steps_write_no_array_they_were_handed_and_match_the_in_place_step(dtype):
    rng = np.random.default_rng(2)
    start = [rng.standard_normal(shape).astype(dtype) for shape in ((3, 2), (4,))]
    grads = [[rng.standard_normal(a.shape).astype(dtype) for a in start] for _ in range(2)]
    named = [(f"p{i}", Tensor(a.copy(), requires_grad=True)) for i, a in enumerate(start)]
    opt, state = Adam(named, lr=1e-2), zero_state(named)
    expected, expected_state = [a.copy() for a in start], zero_state(named)
    for gs in grads:
        for (_, t), g in zip(named, gs):
            read_only(t.data)
            t.grad = read_only(g.copy())
        for key in ("m", "v"):
            for a in state[key].values():
                read_only(a)
        opt.step(state)
        in_place_step(expected, gs, expected_state, lr=1e-2)
    assert state["t"] == expected_state["t"] == 2
    for (name, t), want in zip(named, expected):
        assert t.data.dtype == dtype and t.data.tobytes() == want.tobytes()
        for key in ("m", "v"):
            got = state[key][name]
            assert got.dtype == dtype and got.tobytes() == expected_state[key][name].tobytes()


class TestResume:
    def test_two_optimizers_on_copies_of_one_state_stay_bit_identical(self):
        # what a resumed site relies on: the state alone carries the run on
        rng = np.random.default_rng(0)
        start = [rng.standard_normal((3, 2)), rng.standard_normal(4)]
        grads = [[rng.standard_normal(a.shape) for a in start] for _ in range(4)]

        def stepped(opt, named, state, gs):
            for (_, t), g in zip(named, gs):
                t.grad = g.copy()
            opt.step(state)

        a_named = params(*start)
        a, a_state = Adam(a_named, lr=1e-2), zero_state(a_named)
        for gs in grads[:2]:
            stepped(a, a_named, a_state, gs)

        def copied(state):
            return {"t": state["t"], "m": {n: x.copy() for n, x in state["m"].items()},
                    "v": {n: x.copy() for n, x in state["v"].items()}}

        b_named = params(*(t.data for _, t in a_named))
        b, b_state = Adam(b_named, lr=1e-2), copied(a_state)
        for gs in grads[2:]:
            stepped(a, a_named, a_state, gs)
            stepped(b, b_named, b_state, gs)
        assert a_state["t"] == b_state["t"] == 4
        for (_, ta), (_, tb) in zip(a_named, b_named):
            assert ta.data.tobytes() == tb.data.tobytes()
        for key in ("m", "v"):
            for name in a_state[key]:
                assert a_state[key][name].tobytes() == b_state[key][name].tobytes()

import numpy as np
import pytest

from lcfed import checkpoint, data, federation, runner
from lcfed.config import MODES, ExperimentConfig
from lcfed.federation import ParamSet, fedavg
from lcfed.tensor import Tensor

TINY = dict(mode="lcfed", dtype="float64", sites=3, rounds=1, image_size=16, channels=(4, 8),
            batch_size=3, train_per_site=3, test_per_site=2, lr=1e-2,
            benchmark_seed=1, master_seed=1)


def update_bytes(update: federation.ClientUpdate) -> list:
    """Every figure of an update, as (name, bytes) in a fixed order."""
    arrays = [(f"theta/{n}", a) for n, a in update.theta.values.items()]
    arrays += [(f"beta/{n}", a) for n, a in update.beta.values.items()]
    for key in ("m", "v"):
        arrays += [(f"{key}/{n}", a) for n, a in update.optimizer_state[key].items()]
    return ([(name, a.dtype.str, a.shape, a.tobytes()) for name, a in arrays]
            + [("t", update.optimizer_state["t"]), ("stats", update.stats)])


@pytest.mark.parametrize("parallel", [False, True])
def test_a_serial_run_builds_one_vessel_and_a_parallel_run_one_per_site(
        parallel, tmp_path, monkeypatch):
    built, borrowed = [], []
    build, update = federation.build_clients, federation.local_update

    def spy_build(cfg):
        built.append(build(cfg))
        return built[-1]

    def spy_update(client, state, site, *args):
        borrowed.append((site, client))
        return update(client, state, site, *args)

    monkeypatch.setattr(federation, "build_clients", spy_build)
    monkeypatch.setattr(federation, "local_update", spy_update)
    cfg = ExperimentConfig(**TINY, parallel_clients=parallel, out_dir=str(tmp_path))
    runner.run_experiment(cfg)

    assert len(built) == 1
    vessels = built[0]
    assert len(vessels) == (cfg.sites if parallel else 1)
    assert len({id(v.model) for v in vessels}) == len(vessels)
    assert sorted(site for site, _ in borrowed) == list(range(cfg.sites))
    for site, client in borrowed:
        assert client is vessels[site % len(vessels)]


def tiny_datasets(cfg):
    return data.generate_benchmark(cfg.benchmark_seed, cfg.sites, cfg.train_per_site,
                                   cfg.test_per_site, cfg.image_size, cfg.classes)


def trained_state(cfg):
    """(state after one round, datasets): the sites' heads differ, so HC's
    attention is not zero."""
    datasets = tiny_datasets(cfg)
    state, _ = federation.run_round(federation.initial_state(cfg),
                                    federation.build_clients(cfg), datasets, cfg)
    return state, datasets


def test_a_vessel_that_trained_another_site_gives_the_same_update_as_a_fresh_one():
    cfg = ExperimentConfig(**TINY)
    # one round first, so each site's local parameters and moments differ
    state, datasets = trained_state(cfg)
    heads = federation.relayed_heads(state)

    def site_update(client, k):
        return federation.local_update(client, state, k, heads, datasets[k], cfg)

    used = federation.build_clients(cfg)[0]
    site_update(used, 0)
    assert update_bytes(site_update(used, 1)) == update_bytes(
        site_update(federation.build_clients(cfg)[0], 1))


@pytest.mark.parametrize("classes", [1, 2])
def test_every_gradient_of_a_float32_step_is_float32(classes):
    # a gradient is stored as the op handed it over, never cast: an op that
    # handed back float64 would show here
    cfg = ExperimentConfig(**{**TINY, "dtype": "float32", "classes": classes})
    datasets = tiny_datasets(cfg)
    state = federation.initial_state(cfg)
    client = federation.build_clients(cfg)[0]
    for n, a in state.site_params(1).items():
        client.model.params[n].data = a
    xb = datasets[1].train.images(slice(None), np.float32)
    yb = datasets[1].train.masks.astype(np.float32)
    federation.forward_training(client.model.params, xb, yb, federation.relayed_heads(state),
                                1, cfg).joint.backward()
    params = client.model.params
    assert {n: t.grad.dtype for n, t in params.items()} == dict.fromkeys(params, np.float32)


def test_initial_state_holds_zero_moments_for_every_site():
    cfg = ExperimentConfig(**TINY)
    state = federation.initial_state(cfg)
    names = list(federation.new_model(cfg, np.random.default_rng(0)).params)
    assert len(state.adam_states) == cfg.sites
    for adam in state.adam_states:
        assert adam["t"] == 0
        for key in ("m", "v"):
            assert list(adam[key]) == names
            assert all(not a.any() for a in adam[key].values())


@pytest.mark.parametrize("mode", list(MODES))
def test_prediction_is_bit_for_bit_the_calibrated_map_of_the_training_forward(
        mode, monkeypatch):
    cfg = ExperimentConfig(**{**TINY, "mode": mode})
    state, datasets = trained_state(cfg)
    heads = federation.relayed_heads(state)
    client = federation.build_clients(cfg)[0]
    for n, a in state.site_params(1).items():
        client.model.params[n].data = a
    xb = datasets[1].train.images(slice(None), np.float64)
    yb = datasets[1].train.masks.astype(np.float64)

    maps = []   # dice_loss sees the coarse map, then the calibrated one
    dice = federation.dice_loss
    monkeypatch.setattr(federation, "dice_loss", lambda s, y: maps.append(s.data) or dice(s, y))
    federation.forward_training(client.model.params, xb, yb, heads, 1, cfg)
    # prediction reads constant tensors of the same arrays the training forward used
    constants = {n: Tensor(t.data) for n, t in client.model.params.items()}
    predicted = federation.forward_predict(constants, xb, heads, 1, cfg)

    assert len(maps) == 2
    assert predicted.dtype == maps[1].dtype and predicted.shape == maps[1].shape
    assert predicted.tobytes() == maps[1].tobytes()


@pytest.mark.parametrize("mode", list(MODES))
def test_forward_on_constant_tensors_builds_no_graph(mode):
    cfg = ExperimentConfig(**{**TINY, "mode": mode})
    state, datasets = trained_state(cfg)
    params = {n: Tensor(a) for n, a in state.site_params(1).items()}
    gates, coarse, calibrated = federation._forward(
        params, datasets[1].test.images(slice(None), np.float64), federation.relayed_heads(state),
        1, cfg)
    # graph_node links a node only when a parent tracks gradients, so a root
    # without parents means no node was built anywhere upstream
    for root in (coarse, calibrated) + (() if gates is None else (gates,)):
        assert not root.requires_grad and root._parents == () and root._grad_fn is None
    assert all(t.grad is None for t in params.values())


def test_evaluation_predicts_without_a_graph_or_a_vessel(monkeypatch):
    cfg = ExperimentConfig(**TINY)
    state, datasets = trained_state(cfg)
    roots = []
    forward = federation._forward

    def spy(*args):
        out = forward(*args)
        roots.extend(r for r in out if r is not None)
        return out

    monkeypatch.setattr(federation, "_forward", spy)
    federation.evaluate_clients(state, datasets, cfg)
    assert len(roots) == 3 * cfg.sites   # gates, coarse and calibrated maps per batch
    assert all(not r.requires_grad and r._parents == () for r in roots)


def state_bytes(state: federation.FederationState) -> list:
    """Every figure of a state, as (name, bytes) in a fixed order."""
    sets = [state.theta_g.values] + [b.values for b in state.betas]
    sets += [a[key] for a in state.adam_states for key in ("m", "v")]
    return ([("round", state.round), ("t", [a["t"] for a in state.adam_states])]
            + [(n, a.dtype.str, a.shape, a.tobytes()) for s in sets for n, a in s.items()])


@pytest.mark.parametrize("mode", ["lcfed", "fedavg"])
def test_evaluation_leaves_every_state_array_unchanged(mode):
    cfg = ExperimentConfig(**{**TINY, "mode": mode})
    state, datasets = trained_state(cfg)
    before = state_bytes(state)
    federation.evaluate_clients(state, datasets, cfg)
    assert state_bytes(state) == before


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_two_rounds_leave_both_input_states_unchanged(parallel):
    cfg = ExperimentConfig(**TINY, parallel_clients=parallel)
    datasets, clients = tiny_datasets(cfg), federation.build_clients(cfg)
    start = federation.initial_state(cfg)
    before_start = state_bytes(start)
    first, _ = federation.run_round(start, clients, datasets, cfg)
    before_first = state_bytes(first)
    # the vessel that trained the last site still holds that site's arrays of
    # `first`, and round 2 trains them uncopied: Adam must bind new arrays
    held = clients[-1].model.params
    assert all(held[n].data is a for n, a in first.betas[-1].values.items())
    federation.run_round(first, clients, datasets, cfg)
    assert state_bytes(start) == before_start
    assert state_bytes(first) == before_first


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_two_rounds_from_read_only_states_equal_the_writable_run(parallel):
    cfg = ExperimentConfig(**TINY, parallel_clients=parallel)
    datasets = tiny_datasets(cfg)

    def two_rounds(read_only: bool) -> list:
        clients, state = federation.build_clients(cfg), federation.initial_state(cfg)
        for _ in range(2):
            if read_only:   # a write into any array of the input state raises
                for _, group in checkpoint._groups(state):
                    for a in group.values():
                        a.flags.writeable = False
            state, _ = federation.run_round(state, clients, datasets, cfg)
        return state_bytes(state)

    assert two_rounds(read_only=True) == two_rounds(read_only=False)


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_a_local_update_trains_the_states_own_arrays(parallel, monkeypatch):
    cfg = ExperimentConfig(**TINY, parallel_clients=parallel)
    first, datasets = trained_state(cfg)
    forward, bound = federation.forward_training, {}

    def spy(params, xb, yb, heads, site, cfg):
        if site not in bound:   # the site's first step: nothing has trained yet
            own = first.site_params(site)
            bound[site] = (sorted(params) == sorted(own)
                           and all(params[n].data is a for n, a in own.items()))
        return forward(params, xb, yb, heads, site, cfg)

    monkeypatch.setattr(federation, "forward_training", spy)
    federation.run_round(first, federation.build_clients(cfg), datasets, cfg)
    assert bound == dict.fromkeys(range(cfg.sites), True)


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_a_site_that_fails_in_round_2_leaves_the_round_1_state_unchanged(parallel):
    cfg = ExperimentConfig(**TINY, parallel_clients=parallel)
    datasets, clients = tiny_datasets(cfg), federation.build_clients(cfg)
    first, _ = federation.run_round(federation.initial_state(cfg), clients, datasets, cfg)
    # site 1's calibrated head is its own and relayed to no other site, so
    # site 1 alone fails, at joint_loss's finite check
    first.betas[1].values["head_calib.b"][0] = np.nan
    before = state_bytes(first)
    with pytest.raises(FloatingPointError, match=r"site 1, round 2: non-finite"):
        federation.run_round(first, clients, datasets, cfg)
    assert state_bytes(first) == before


class TestFedavg:
    def test_mean_over_three_sets_by_hand(self):
        sets = [ParamSet({"w": np.array([[1.0, 2.0]]), "b": np.array([3.0])}),
                ParamSet({"w": np.array([[4.0, -2.0]]), "b": np.array([6.0])}),
                ParamSet({"w": np.array([[7.0, 3.0]]), "b": np.array([0.0])})]
        out = fedavg(sets).values
        np.testing.assert_array_equal(out["w"], [[4.0, 1.0]])
        np.testing.assert_array_equal(out["b"], [3.0])

    def test_name_order_is_kept(self):
        names = ["up1.w", "enc0.conv.w", "head_calib.b", "dec0.norm.g"]
        sets = [ParamSet({n: np.full(2, float(i)) for n in names}) for i in range(3)]
        assert list(fedavg(sets).values) == names

    def test_one_set_returns_its_values(self):
        a = np.random.default_rng(1).standard_normal((3, 4))
        out = fedavg([ParamSet({"w": a})]).values["w"]
        assert out.dtype == a.dtype and out.tobytes() == a.tobytes()

    def test_float32_stays_float32(self):
        sets = [ParamSet({"w": np.full(3, v, dtype=np.float32)}) for v in (1.0, 2.0, 4.0)]
        out = fedavg(sets).values["w"]
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, np.float32(7.0) / np.float32(3.0))

"""Golden runs pinned to values recorded before the conv, pooling and
autodiff kernels were rewritten: a tiny float64 LC-Fed experiment, and the
gradients of one training step.

Those rewrites only reassociate floating-point sums, so every pinned figure
must stay within 1e-12 relative.  Each array is pinned by its sum and its
mass (sum of absolute values); a sum is compared relative to the mass, which
bounds what reassociation can move it by.
"""

import os
import tracemalloc

import numpy as np
import pytest

from lcfed import data, federation, hc
from lcfed.checkpoint import load_checkpoint
from lcfed.config import ExperimentConfig
from lcfed.runner import read_metrics, run_experiment

RTOL = 1e-12

TINY = dict(mode="lcfed", dtype="float64", sites=2, rounds=2, image_size=32,
            channels=(8, 16, 32), batch_size=3, train_per_site=9, test_per_site=3,
            lr=1e-2, benchmark_seed=1, master_seed=1)

PINNED_JOINT = 1.0641067941651352
PINNED_SUMS = {
    'g/enc0.conv.w': (1.5670529515472411, 23.21194443311459),
    'g/enc0.norm.g': (7.944728050898184, 7.944728050898184),
    'g/enc0.norm.o': (-0.02881204935660024, 0.2545653263499033),
    'g/enc1.conv.w': (-9.755363310868393, 155.30912718394433),
    'g/enc1.norm.g': (16.00415991771927, 16.00415991771927),
    'g/enc1.norm.o': (0.01831335646632133, 0.3840134561978623),
    'g/enc2.conv.w': (5.617648550034791, 443.62118607240086),
    'g/enc2.norm.g': (32.145586187403374, 32.145586187403374),
    'g/enc2.norm.o': (0.18948738639914664, 0.6790925759703894),
    'g/up0.w': (-10.895066061481575, 101.80590669507575),
    'g/up0.b': (-0.054241848304916726, 0.4907813565674446),
    'g/dec0.conv.w': (-16.562820459994757, 319.10481424774355),
    'g/dec0.norm.g': (15.756894707765348, 15.756894707765348),
    'g/dec0.norm.o': (-0.04894931755310755, 0.37379035067661065),
    'g/up1.w': (-1.9979025247165014, 35.603455773816016),
    'g/up1.b': (-0.058975619605559026, 0.3001025488317428),
    'g/dec1.conv.w': (-10.489011627655959, 112.03869466080272),
    'g/dec1.norm.g': (8.279567661340547, 8.279567661340547),
    'g/dec1.norm.o': (0.2597552331650116, 0.27487119647830455),
    'g/pcsgen.fc1.w': (-6.713371615379709, 58.545052955875384),
    'g/pcsgen.fc1.b': (0.049600758611804296, 0.8181540101806626),
    'g/pcsgen.norm.g': (32.25950815730371, 32.25950815730371),
    'g/pcsgen.norm.o': (0.2599716353709002, 0.3945957323361109),
    'g/pcsgen.fc2.w': (0.3577099944662021, 210.36104643046767),
    'g/pcsgen.fc2.b': (0.18069499615942536, 0.37735516601881514),
    'g/pcsgen.fuse.w': (9.134691799063482, 286.57314997080744),
    'g/pcsgen.fuse.b': (-0.06454484454537465, 0.17601468721535982),
    'b0/head_coarse.w': (-1.9111837177167137, 3.0185922258288223),
    'b0/head_coarse.b': (0.014017035735478921, 0.014017035735478921),
    'b0/head_calib.w': (0.4983531327987178, 2.3491026640452004),
    'b0/head_calib.b': (-0.05409713946944182, 0.05409713946944182),
    'b1/head_coarse.w': (-1.9527145963524921, 3.0039524792284182),
    'b1/head_coarse.b': (0.05639631819587062, 0.05639631819587062),
    'b1/head_calib.w': (0.4487070509489575, 2.4216364849289693),
    'b1/head_calib.b': (0.021749333822197833, 0.021749333822197833),
}

# one training step of site 1 of 3 on 3 images, heads perturbed apart so HC's
# disagreement map is not zero
STEP = dict(mode="lcfed", dtype="float64", sites=3, image_size=32, channels=(8, 16, 32),
            batch_size=3, train_per_site=3, test_per_site=1, benchmark_seed=1, master_seed=1)
PINNED_STEP_JOINT = 1.2954711713134763
PINNED_GRADS = {
    'enc0.conv.w': (0.4046769622601939, 1.5175736172639498),
    'enc0.norm.g': (0.007415395564580948, 0.0815097013757139),
    'enc0.norm.o': (0.0072946783695562855, 0.0538218149192223),
    'enc1.conv.w': (-0.25174974763573776, 4.448750383907365),
    'enc1.norm.g': (-0.009132290974394438, 0.07313400357846091),
    'enc1.norm.o': (-0.0183105690221563, 0.05707059066802407),
    'enc2.conv.w': (0.09863436988670116, 11.542248133054454),
    'enc2.norm.g': (0.007829989443116164, 0.09639855178721829),
    'enc2.norm.o': (0.020864513498932168, 0.08621702109402904),
    'up0.w': (0.049060877446710276, 1.5405816228501903),
    'up0.b': (-0.0012757124373696835, 0.008072550011043948),
    'dec0.conv.w': (-4.21095787472759, 11.995066743534483),
    'dec0.norm.g': (-0.007415538222876352, 0.08563340065946871),
    'dec0.norm.o': (-0.003197339469035711, 0.05936537582035371),
    'up1.w': (-0.07205226411374921, 0.5657043731088074),
    'up1.b': (-0.0013857213361679035, 0.0066012954476919895),
    'dec1.conv.w': (-0.6960877774497277, 6.9835252407463955),
    'dec1.norm.g': (-0.012515054364680644, 0.06735611373303046),
    'dec1.norm.o': (-0.022018918274614448, 0.08207961952532433),
    'pcsgen.fc1.w': (4.336808689942018e-19, 0.005909287744364211),
    'pcsgen.fc1.b': (4.336808689942018e-19, 0.005909287744364211),
    'pcsgen.norm.g': (0.0011863809637618844, 0.003822652093888617),
    'pcsgen.norm.o': (0.0007747019152747717, 0.004557645204167566),
    'pcsgen.fc2.w': (0.002336881382790967, 0.13817843296515217),
    'pcsgen.fc2.b': (0.00017695626431851502, 0.010463320683267583),
    'pcsgen.fuse.w': (-0.02393366640427272, 0.44054837336667735),
    'pcsgen.fuse.b': (-0.00219776266149116, 0.01315786594315944),
    'head_coarse.w': (-0.06886127277550125, 0.16616700557736902),
    'head_coarse.b': (-0.03838221876086637, 0.03838221876086637),
    'head_calib.w': (-0.13010032311579067, 0.21742148702065686),
    'head_calib.b': (-0.05942381656487119, 0.05942381656487119),
}


def assert_sums_match(sums: dict, pins: dict):
    """Compare {name: (sum, mass)} against pins; see the module docstring."""
    assert sorted(sums) == sorted(pins)
    for name, (total, mass) in sums.items():
        ref_total, ref_mass = pins[name]
        assert mass == pytest.approx(ref_mass, rel=RTOL, abs=0), name
        assert abs(total - ref_total) <= RTOL * ref_mass, name


def tiny_run(out_dir):
    """(site-mean final joint loss, {array name: (sum, sum of |values|)})."""
    run_dir = run_experiment(ExperimentConfig(**TINY, out_dir=str(out_dir)))
    _, rows = read_metrics(run_dir)
    joint = float(np.mean([r["loss_joint"] for r in rows if r["round"] == TINY["rounds"]]))
    state, _, _ = load_checkpoint(
        os.path.join(run_dir, "checkpoints", f"round_{TINY['rounds']:04d}.ckpt"))
    arrays = {f"g/{n}": a for n, a in state.theta_g.values.items()}
    for k, beta in enumerate(state.betas):
        arrays.update({f"b{k}/{n}": a for n, a in beta.values.items()})
    return joint, {n: (float(a.sum()), float(np.abs(a).sum())) for n, a in arrays.items()}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    return tiny_run(tmp_path_factory.mktemp("golden"))


def test_final_joint_loss_matches_pin(golden):
    joint, _ = golden
    assert joint == pytest.approx(PINNED_JOINT, rel=RTOL, abs=0)


def test_parameter_sums_match_pins(golden):
    _, sums = golden
    assert_sums_match(sums, PINNED_SUMS)


def step_inputs():
    """(config, site datasets, site 1's vessel, the initial state) at STEP,
    the vessel holding site 1's parameters."""
    cfg = ExperimentConfig(**STEP)
    datasets = data.generate_benchmark(cfg.benchmark_seed, cfg.sites, cfg.train_per_site,
                                       cfg.test_per_site, cfg.image_size, cfg.classes)
    client = federation.build_clients(cfg)[0]
    state = federation.initial_state(cfg)
    for n, a in state.site_params(1).items():
        client.model.params[n].data = a
    return cfg, datasets, client, state


def test_one_step_gradients_match_pins_and_constants_get_none(monkeypatch):
    cfg, datasets, client, state = step_inputs()
    rng = np.random.default_rng(5)
    w, b = federation.relayed_heads(state)
    # one (C, N) draw per site, in site order, stacked as the heads are
    n = b.shape[0] // cfg.sites
    noise = [rng.standard_normal((w.shape[0], n)) for _ in range(cfg.sites)]
    heads = w + 0.1 * np.concatenate(noise, axis=1), b

    # the input image enters through encode(); the other sites' heads through
    # the concat in hc that splices the local head's live parameters between
    # the relayed columns left and right of site 1's
    inputs, stacked = [], []
    encode = federation.encode
    monkeypatch.setattr(federation, "encode", lambda p, x: inputs.append(x) or encode(p, x))
    cat = hc.concat
    monkeypatch.setattr(hc, "concat",
                        lambda ts, axis: stacked.extend(ts) or cat(ts, axis=axis))

    site = datasets[1]
    loss = federation.forward_training(client.model.params,
                                       site.train.images(slice(None), np.float64),
                                       site.train.masks.astype(np.float64), heads, 1, cfg)
    client.optimizer.zero_grad()
    loss.joint.backward()

    assert float(loss.joint.data) == pytest.approx(PINNED_STEP_JOINT, rel=RTOL, abs=0)
    params = list(client.model.params.values())
    foreign = [t for t in stacked if not any(t is p for p in params)]
    assert len(inputs) == 1 and len(foreign) == 4   # weight and bias, left and right
    for t in inputs + foreign:
        assert t.grad is None
    grads = {n: (float(t.grad.sum()), float(np.abs(t.grad).sum()))
             for n, t in client.model.params.items()}
    assert_sums_match(grads, PINNED_GRADS)


# Bytes one forward at STEP may leave in the graph.  It keeps about 2.9 MB
# when each node keeps only the arrays its backward reads; a norm that kept
# its pre-relu output and x - mean, a decoder that kept its upsampled maps
# and an HC gate that kept f * a would hold 4.65 MB.
KEPT_BOUND = 3.5e6


def test_one_forward_keeps_only_what_backward_reads():
    cfg, datasets, client, state = step_inputs()
    site = datasets[1]
    xb = site.train.images(slice(None), np.float64)
    yb = site.train.masks.astype(np.float64)
    heads = federation.relayed_heads(state)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = federation.forward_training(client.model.params, xb, yb, heads, 1, cfg)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss.joint.item())
    assert kept < KEPT_BOUND, f"one forward keeps {kept / 1e6:.2f} MB"

"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import lcfed  # noqa: E402
import lcfed.metrics  # noqa: E402,F401
import lcfed.runner  # noqa: E402
from lcfed import federation  # noqa: E402
from lcfed.config import ExperimentConfig  # noqa: E402
from lcfed.tensor import Tensor  # noqa: E402

import tracer  # noqa: E402
import worker  # noqa: E402


def tiny_config(out_dir, **overrides) -> ExperimentConfig:
    fields = dict(mode="lcfed", sites=2, rounds=2, image_size=16, channels=(4, 8),
                  train_per_site=6, test_per_site=2, batch_size=3, lr=1e-2,
                  eval_every=1, checkpoint_every=1, out_dir=str(out_dir))
    return ExperimentConfig(**{**fields, **overrides})


def test_traced_run_ends_bit_identical_to_untraced(tmp_path):
    originals = (lcfed.tensor.conv2d, lcfed.tensor.graph_node, lcfed.federation.head_calibration,
                 lcfed.tensor.Tensor.backward, lcfed.optim.Adam.step)
    plain = worker.measure(lcfed, tiny_config(tmp_path / "plain"), time.perf_counter())
    traced = worker.measure(lcfed, tiny_config(tmp_path / "traced"), time.perf_counter(),
                            traced=True)
    assert plain["ok"] and traced["ok"], (plain["checks"], traced["checks"])
    assert plain["digest"] == traced["digest"]
    assert plain["final_iou"] == traced["final_iou"]
    assert (lcfed.tensor.conv2d, lcfed.tensor.graph_node, lcfed.federation.head_calibration,
            lcfed.tensor.Tensor.backward, lcfed.optim.Adam.step) == originals

    layers = traced["layers"]
    assert layers["tensor.conv2d.enc0.fwd_ms"] > 0 and layers["tensor.conv2d.dec0.bwd_ms"] > 0
    assert layers["tensor.conv2d.enc4.fwd_ms"] == 0  # a 2-stage model has no enc4
    assert layers["hc.head_calibration_ms"] > 0 and layers["pcs.augment_embedding_ms"] > 0
    assert layers["tensor.accumulate_grad.calls_per_step"] > layers[
        "tensor.grad_alloc.calls_per_step"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    assert listed == set(layers) | {"trace_overhead_frac"}


def test_fedavg_float32_traced_run_has_no_pcs_or_hc_time(tmp_path):
    overrides = dict(mode="fedavg", dtype="float32")
    plain = worker.measure(lcfed, tiny_config(tmp_path / "plain", **overrides),
                           time.perf_counter())
    traced = worker.measure(lcfed, tiny_config(tmp_path / "traced", **overrides),
                            time.perf_counter(), traced=True)
    assert plain["ok"] and traced["ok"], (plain["checks"], traced["checks"])
    assert plain["digest"] == traced["digest"]
    layers = traced["layers"]
    assert layers["tensor.conv2d.enc0.fwd_ms"] > 0
    assert all(v == 0 for k, v in layers.items() if k.startswith(("pcs.", "hc."))), layers


def test_gflop_per_step_matches_hand_formula():
    b, cin, cout, k, h, w = 2, 3, 5, 3, 8, 6
    t = tracer.Tracer()
    t.install_layers(lcfed)
    try:
        t._start_step((), {})
        lcfed.tensor.conv2d(Tensor(np.ones((b, cin, h, w))), Tensor(np.ones((cout, cin, k, k))))
        t._end_step()
    finally:
        t.uninstall()
    expected = 2 * b * cout * cin * k * k * h * w
    assert t.counts["tensor.conv2d.flop"] == expected
    assert tracer.layer_metrics(t)["tensor.conv2d.gflop_per_step"] == expected / 1e9


def test_self_time_on_hand_built_span_tree():
    clock = iter([0.0, 1.0, 1.5, 2.5, 4.0, 5.0, 9.0, 10.0]).__next__
    t = tracer.Tracer(clock=clock)
    root = t.open("root")
    a = t.open("a")
    a1 = t.open("a1")
    t.close(a1)
    t.close(a)
    b = t.open("b")
    t.close(b)
    t.close(root)
    assert [(s[0], s[3]) for s in t.spans] == [("root", -1), ("a", 0), ("a1", 1), ("b", 0)]
    assert tracer.self_times(t.spans) == [3.0, 2.0, 1.0, 4.0]


def test_state_mismatch_finds_one_flipped_bit():
    cfg = tiny_config("")
    state = federation.initial_state(cfg)
    other = federation.initial_state(cfg)
    assert worker.state_mismatches(state, other) == []
    name = next(iter(other.theta_g.values))
    arr = other.theta_g.values[name]
    arr.view(np.uint64).flat[0] ^= 1
    diff = worker.state_mismatches(state, other)
    assert len(diff) == 1 and diff[0].startswith("state.theta_g") and repr(name) in diff[0]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lcfed-desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

"""Measure a baseline: every workload on several seeds, then one traced run each.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline/BASELINE.json

For each workload and end-to-end metric it records two spreads (the distance
between the quartiles over the median, as ``statistics.quantiles(values,
n=4)`` gives them) next to the metric's bound: one across the seeds, which is
what a regression check sees, and one across repeated runs on the first seed,
which is the run-to-run noise alone.  The traced run on the first seed adds
the per-layer figures and the share of a training step each op family takes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# untraced runs on the first seed that measure run-to-run noise
SAME_SEED_REPEATS = 5


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result\n{done.stderr}")
    result = json.loads(lines[-1])
    env = json.loads(next(line for line in lines if line.startswith("# env "))[len("# env "):])
    return {"result": result, "env": env}


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def step_shares(layers: dict) -> dict:
    """Share of a mean training step per op family (forward plus backward)."""
    step = (layers["federation.forward_training_ms"] + layers["tensor.backward_ms"]
            + layers["optim.step_ms"] + layers["optim.zero_grad_ms"])
    conv3 = sum(v for k, v in layers.items() if k.startswith("tensor.conv2d.")
                and k.split(".")[2][:3] in ("enc", "dec") and k.endswith("_ms"))
    conv1 = sum(v for k, v in layers.items() if k.startswith("tensor.conv2d.up"))
    families = {
        "conv3x3": conv3,
        "conv1x1_up": conv1,
        "instance_norm": layers["layers.instance_norm.fwd_ms"] + layers["layers.instance_norm.bwd_ms"],
        "pooling_upsampling": sum(layers[f"model.{op}.{d}_ms"] for op in
                                  ("max_pool2x2", "upsample_nearest2x") for d in ("fwd", "bwd")),
        "hc_forward": layers["hc.head_calibration_ms"],
        "adam": layers["optim.step_ms"],
    }
    return {"step_ms": step, **{k: v / step for k, v in families.items()}}


def untraced_runs(name: str, seeds: list, seconds: int) -> list:
    runs = []
    for seed in seeds:
        runs.append(run_once(name, seed, seconds, 0))
        res = runs[-1]["result"]
        print(f"{name} seed {seed}: correct={res['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              flush=True)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    out = {"seeds": [first, last], "same_seed_repeats": SAME_SEED_REPEATS,
           "run_seconds": seconds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        seeded = untraced_runs(name, range(first, last + 1), seconds)
        repeated = untraced_runs(name, [first] * SAME_SEED_REPEATS, seconds)
        entry = {"env": seeded[0]["env"],
                 "correct": all(r["result"]["correct"] for r in seeded + repeated),
                 "end_to_end": {}}
        for m in spec["end_to_end"]:
            across = [r["result"]["metrics"][m["name"]]["value"] for r in seeded]
            same = [r["result"]["metrics"][m["name"]]["value"] for r in repeated]
            s = entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "bound": m["bound"], **spread(across), "values": across,
                "same_seed": {**spread(same), "values": same}}
            print(f"  {m['name']:22s} median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"same-seed spread {s['same_seed']['spread']:.4f} (bound {m['bound']})",
                  flush=True)
        traced = run_once(name, first, seconds, 1)["result"]
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_correct"] = traced["correct"]
        entry["per_layer"] = layers
        entry["step_shares"] = step_shares(layers)
        print(f"  traced: correct={traced['correct']} "
              f"overhead={layers['trace_overhead_frac']:.4f} "
              f"shares={json.dumps({k: round(v, 3) for k, v in entry['step_shares'].items()})}",
              flush=True)
        out["workloads"][name] = entry
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

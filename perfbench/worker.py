"""One lcfed experiment in a fresh process, timed from before ``import lcfed``.

    python3 perfbench/worker.py --workload lcfed-desk --seed 1 --out DIR [--trace] [--setup-only]

The experiment runs through ``lcfed.runner.run_experiment``, the function
``lcfed run`` calls.  The last line of standard output is one JSON object with
the run's timings, the results of its output checks and, when traced, the
per-layer figures.  ``--setup-only`` stops at the first ``run_round`` call.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


class _SetupDone(Exception):
    """Raised at the first run_round call of a setup-only run."""


def flatten(obj, path="state"):
    """(path, leaf) pairs of a federation state, in a fixed order."""
    if hasattr(obj, "dtype") and hasattr(obj, "tobytes"):
        yield path, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from flatten(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from flatten(obj[key], f"{path}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from flatten(item, f"{path}[{i}]")
    elif hasattr(obj, "__dict__"):
        yield from flatten(vars(obj), path)
    else:
        yield path, obj


def _leaf_key(leaf):
    if hasattr(leaf, "tobytes"):
        return (str(leaf.dtype), leaf.shape, leaf.tobytes())
    return repr(leaf)


def state_digest(state) -> str:
    h = hashlib.sha256()
    for path, leaf in flatten(state):
        h.update(repr((path, _leaf_key(leaf))).encode())
    return h.hexdigest()[:16]


def state_mismatches(a, b) -> list:
    """Paths where two states differ in structure, dtype, shape or any bit."""
    left, right = dict(flatten(a)), dict(flatten(b))
    paths = sorted(set(left) | set(right))
    return [p for p in paths
            if p not in left or p not in right or _leaf_key(left[p]) != _leaf_key(right[p])]


def environment(cfg) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "config_digest": cfg.digest()}


def nonfinite_losses(round_index: int, stats) -> list:
    """Messages for every site of one round whose losses are not all finite."""
    out = []
    for site, stat in enumerate(stats):
        bad = {k: v for k, v in stat.items() if not math.isfinite(v)}
        if bad:
            out.append(f"round {round_index} site {site}: non-finite losses {bad}")
    return out


def _check_outputs(lcfed, cfg, last_state) -> list:
    """Messages for every output file of a finished run that is wrong."""
    failures = []
    evaluated = [r for r in range(1, cfg.rounds + 1)
                 if r == cfg.rounds or (cfg.eval_every > 0 and r % cfg.eval_every == 0)]
    expected = sorted((r, k) for r in evaluated for k in range(cfg.sites))
    _, rows = lcfed.runner.read_metrics(cfg.out_dir)
    if sorted((row["round"], row["site"]) for row in rows) != expected:
        failures.append(f"metrics.csv rows {[(row['round'], row['site']) for row in rows]} "
                        f"are not one per evaluated round per site")

    path = os.path.join(cfg.out_dir, "checkpoints", f"round_{cfg.rounds:04d}.ckpt")
    loaded, digest, seed = lcfed.checkpoint.load_checkpoint(path)
    diff = state_mismatches(last_state, loaded)
    if diff:
        failures.append(f"final checkpoint differs from the last round's state at {diff[:5]}")
    if digest != cfg.digest() or seed != cfg.master_seed:
        failures.append("final checkpoint carries the wrong digest or seed")
    return failures


def measure(lcfed, cfg, t0: float, traced: bool = False, setup_only: bool = False,
            spans_path: str | None = None) -> dict:
    """Run one experiment and return its timings, checks and figures.

    `t0` is the clock reading taken before ``import lcfed``; `lcfed` is the
    imported package with its ``runner`` and ``metrics`` modules loaded.
    """
    tracer = Tracer()
    # only the latest round's (state, stats) is kept, as run_experiment does,
    # so that peak_rss_mb measures the program and not the benchmark
    last = {"rounds": 0}
    checks = []
    first_round = []

    def before_round(args, kwargs):
        if not first_round:
            first_round.append(time.perf_counter())
            if setup_only:
                raise _SetupDone

    def after_round(idx, args, kwargs, out):
        last["rounds"] += 1
        last["state"], last["stats"] = out
        checks.extend(nonfinite_losses(last["rounds"], last["stats"]))

    if traced:
        tracer.install_layers(lcfed)
    tracer.install_rounds(lcfed, before_round=before_round, after_round=after_round)
    error = None
    try:
        lcfed.runner.run_experiment(cfg)
    except _SetupDone:
        pass
    except Exception:  # the run is reported failed; its unfinished steps count as failed
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steps_per_round = cfg.sites * cfg.local_epochs * -(-cfg.train_per_site // cfg.batch_size)
    summary = {
        "setup_s": first_round[0] - t0 if first_round else None,
        "run_s": run_s,
        "steps_done": last["rounds"] * steps_per_round,
        "round_s": tracer.durations("federation.run_round"),
        "round_images": cfg.sites * cfg.local_epochs * cfg.train_per_site,
        "eval_s": tracer.durations("federation.evaluate_clients"),
        "eval_images": cfg.sites * cfg.test_per_site,
        "checkpoint_s": tracer.durations("checkpoint.save"),
        "env": environment(cfg),
        "peak_rss_mb": peak_rss_mb,
    }
    if error is None and not setup_only:
        try:
            checks += _check_outputs(lcfed, cfg, last["state"])
            _, _, summary["final_iou"], _ = lcfed.runner.final_scores(cfg.out_dir)
        except (OSError, ValueError, KeyError) as err:
            checks.append(f"reading the run's outputs failed: {err!r}")
        summary["final_joint"] = sum(s["joint"] for s in last["stats"]) / len(last["stats"])
        summary["digest"] = state_digest(last["state"])
        ckpt = os.path.join(cfg.out_dir, "checkpoints", f"round_{cfg.rounds:04d}.ckpt")
        summary["runner_self_s"] = (run_s - summary["setup_s"] - sum(summary["round_s"])
                                    - sum(summary["eval_s"]) - sum(summary["checkpoint_s"]))
        if traced:
            figures = layer_metrics(tracer)
            figures["runner.self_s"] = summary["runner_self_s"]
            figures["checkpoint.bytes"] = os.path.getsize(ckpt)
            summary["layers"] = figures
    tracer.uninstall()
    if spans_path and traced:
        tracer.write(spans_path)
    summary["error"] = error
    summary["checks"] = checks
    summary["ok"] = error is None and not checks
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="run directory to create")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only")
    parser.add_argument("--spans", help="write the traced run's spans to this file")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import lcfed
    import lcfed.metrics  # scipy's import belongs to set-up, not to the first evaluation
    import lcfed.runner
    from lcfed.config import ExperimentConfig

    cfg = ExperimentConfig(**workloads.fields(args.workload, args.seed), out_dir=args.out)
    summary = measure(lcfed, cfg, t0, traced=args.trace, setup_only=args.setup_only,
                      spans_path=args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

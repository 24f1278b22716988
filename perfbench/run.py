"""Run one lcfed benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lcfed-desk --seed 1 --seconds 60 --trace 0

Each experiment runs in a fresh worker process (perfbench/worker.py) with one
BLAS thread.  An untraced run (--trace 0) repeats a few set-up-only workers
followed by one whole experiment while another such round fits in --seconds,
fills the rest with set-up-only workers, and reports the end-to-end metrics
of BENCHMARK.json.  A traced run (--trace 1) alternates
untraced and traced experiments and reports the per-layer metrics.  Every
experiment's outputs are checked; all experiments of one run use the same
seed and must end in bit-identical state, traced or not.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record, with the environment and
every worker's figures, is written under .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_runs")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# set-up-only workers ahead of each untraced experiment; spreading them over
# the run makes the setup_s median sample the host across the whole run
SETUP_ONLY_PER_EXPERIMENT = 4
WORKER_TIMEOUT_S = 170
BLAS_THREADS = "1"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "lcfed")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _worker(workload: str, seed: int, run_dir: str, trace=False, setup_only=False,
            spans=None) -> dict:
    """Run one worker process to completion; a crash yields ok=False."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", run_dir]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        summary = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    except (subprocess.TimeoutExpired, json.JSONDecodeError):
        summary = None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if summary is None:
        return {"ok": False, "error": "worker crashed or timed out", "checks": [],
                "steps_done": 0, "trace": trace, "setup_only": setup_only}
    summary.update(trace=trace, setup_only=setup_only)
    return summary


def run_workers(workload: str, seed: int, seconds: float, trace: bool, spans: str) -> list:
    """Workers for one run: enough to fill `seconds`, at least one experiment.

    An untraced run fills the time that is too short for another experiment
    with more set-up-only workers.
    """
    deadline = time.monotonic() + seconds
    tag = f"{workload}-s{seed}-{os.getpid()}"
    results = []

    def launch(**kw):
        run_dir = os.path.join(OUT_ROOT, f"{tag}-{len(results)}")
        results.append(_worker(workload, seed, run_dir, **kw))

    def another_fits(started):
        now = time.monotonic()
        return now + (now - started) <= deadline

    while True:
        started = time.monotonic()
        if not trace:
            for _ in range(SETUP_ONLY_PER_EXPERIMENT):
                launch(setup_only=True)
        launch()
        if trace:
            launch(trace=True, spans=spans)
        if not another_fits(started):
            break
    while not trace:
        started = time.monotonic()
        launch(setup_only=True)
        if not another_fits(started):
            break
    return results


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(workers: list) -> dict:
    full = [w for w in workers if not w["setup_only"] and not w["trace"] and w["ok"]]
    setups = [w["setup_s"] for w in workers if w["ok"] and not w["trace"]]
    warm = [w["round_images"] / s for w in full for s in w["round_s"][1:]]
    evals = [w["eval_images"] / s for w in full for s in w["eval_s"]]
    return {
        "setup_s": _median(setups),
        "run_s": _median([w["run_s"] for w in full]),
        "train_samples_per_s": _median(warm),
        "eval_images_per_s": _median(evals),
        "peak_rss_mb": _median([w["peak_rss_mb"] for w in full]),
        "final_iou": full[0]["final_iou"] if full else float("nan"),
    }


def per_layer(workers: list) -> dict:
    traced = [w for w in workers if w["trace"] and w["ok"]]
    untraced = [w for w in workers if not w["trace"] and w["ok"]]
    if not traced or not untraced:
        return {}
    names = traced[0]["layers"]
    out = {name: _median([w["layers"][name] for w in traced]) for name in names}
    out["trace_overhead_frac"] = (_median([w["run_s"] for w in traced])
                                  / _median([w["run_s"] for w in untraced]) - 1.0)
    return out


def run_checks(workload: str, seed: int, workers: list) -> list:
    """Messages for everything wrong with a run's outputs."""
    problems = []
    for i, w in enumerate(workers):
        if not w["ok"]:
            problems.append(f"worker {i}: {w.get('error') or '; '.join(w['checks'])}")
    full = [w for w in workers if not w["setup_only"] and w["ok"]]
    if len({w["digest"] for w in full}) > 1:
        problems.append("experiments with one seed ended in different states "
                        f"(traced: {[w['trace'] for w in full]}, "
                        f"digests: {[w['digest'] for w in full]})")
    if len({w["final_iou"] for w in full}) > 1:
        problems.append("experiments with one seed ended with different IoU")
    if full and seed == workloads.DEFAULT_SEED:
        problems += workloads.reference_failures(workload, full[0]["final_joint"],
                                                 full[0]["final_iou"])
    if not full:
        problems.append("no experiment passed its checks")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "lcfed", "__init__.py")):
            raise BenchError(f"no lcfed sources under {os.path.join(ROOT, 'src')}")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"expected one of {sorted(workloads.WORKLOADS)}")
    except (BenchError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    os.makedirs(OUT_ROOT, exist_ok=True)
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    spans_path = os.path.join(OUT_ROOT, f"SPANS_{label}.json")
    workers = run_workers(args.workload, args.seed, args.seconds, bool(args.trace), spans_path)

    problems = run_checks(args.workload, args.seed, workers)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(workers) if args.trace else end_to_end(workers)
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing and not problems:
        problems.append(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], float("nan")), "unit": m["unit"]}
               for m in listed}
    planned = workloads.steps_planned(args.workload)
    experiments = [w for w in workers if not w["setup_only"]]
    attempted = planned * len(experiments)
    # wrong outputs fail every step of the experiment; a crash fails the unfinished ones
    failed = sum(0 if w["ok"] else planned if w["checks"] else planned - w["steps_done"]
                 for w in experiments)
    env = dict(next((w["env"] for w in workers if "env" in w), {}),
               workload=args.workload, seed=args.seed, nproc=os.cpu_count(),
               git_revision=_git_revision(), source_digest=_source_digest())
    record = {"env": env, "problems": problems, "attempted": attempted, "failed": failed,
              "metrics": metrics, "workers": workers}
    record_path = os.path.join(OUT_ROOT, f"BENCH_{label}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{sum(not w['setup_only'] for w in workers)} experiments, "
          f"{sum(w['setup_only'] for w in workers)} set-up-only workers; record {record_path}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"{'ops_failed_frac':42s} {failed / max(attempted, 1):14.6g} "
          f"({failed} of {attempted} training steps)")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

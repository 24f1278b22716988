"""Experiment runner: drives rounds, records metrics, checkpoints, reports.

Run-directory layout:
    config.txt        effective configuration echo
    metrics.csv       one row per evaluated round per site (losses are the
                      round's training means; IoU/ASSD from the test split)
    checkpoints/      round_NNNN.ckpt (binary, resumable)
    summary.txt       final per-site table, sites as columns, average last
    curves.csv        per-round site-averaged curves for plotting
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from . import data as data_mod
from . import federation
from .checkpoint import check_arrays, load_checkpoint, save_checkpoint
from .config import ExperimentConfig

CSV_HEADER = "round,site,iou,assd,loss_joint,loss_coarse,loss_calib,loss_con"

# glibc malloc tuning for a training step's large, short-lived numpy arrays.
# By default glibc raises its mmap threshold as big blocks are freed and trims
# the heap top whenever 128 KB lie free there, so the heap grows and shrinks
# every step and fresh pages fault in again.  Fixing both thresholds keeps the
# step's arrays (up to tens of MB) on a heap that stays mapped.
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 256 << 20
_M_TRIM_THRESHOLD = -1   # parameter numbers from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def build_datasets(cfg: ExperimentConfig) -> list:
    if cfg.manifest:
        samples = data_mod.load_directory(cfg.manifest)
        if not samples:
            raise ValueError(f"manifest {cfg.manifest} lists no samples")
        sites = data_mod.sites_from_samples(samples)
        if len(sites) != cfg.sites:
            raise ValueError(
                f"manifest has {len(sites)} sites but config expects {cfg.sites}")
        size = sites[0].train_images.shape[-1]
        if size != cfg.image_size:
            raise ValueError(
                f"dataset images are {size}px but config expects {cfg.image_size}px")
        classes = sites[0].train_masks.shape[1]
        if classes != cfg.classes:
            raise ValueError(
                f"manifest masks have {classes} class(es) but config expects {cfg.classes}")
        return sites
    return data_mod.generate_benchmark(cfg.benchmark_seed, cfg.sites,
                                       cfg.train_per_site, cfg.test_per_site,
                                       cfg.image_size, cfg.classes)


def steady_heap() -> bool:
    """Fix glibc's mmap and trim thresholds; False where there is no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no libc handle, or not glibc
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1)


def _metrics_path(out_dir):
    return os.path.join(out_dir, "metrics.csv")


def _ckpt_path(out_dir, round_index):
    return os.path.join(out_dir, "checkpoints", f"round_{round_index:04d}.ckpt")


def _should_eval(cfg: ExperimentConfig, round_index: int) -> bool:
    if round_index == cfg.rounds:
        return True
    return cfg.eval_every > 0 and round_index % cfg.eval_every == 0


def run_experiment(cfg: ExperimentConfig, stop_after_round: int | None = None,
                   resume_state=None) -> str:
    """Run (or continue) an experiment; returns the run directory."""
    cfg.validate()
    if not cfg.out_dir:
        raise ValueError("config needs an output directory")
    steady_heap()
    out_dir = cfg.out_dir
    os.makedirs(os.path.join(out_dir, "checkpoints"), exist_ok=True)
    digest = cfg.digest()

    config_path = os.path.join(out_dir, "config.txt")
    if resume_state is None:
        with open(config_path, "w") as fh:
            fh.write(cfg.to_text())

    datasets = build_datasets(cfg)
    clients = federation.build_clients(cfg)

    if resume_state is not None:
        state = resume_state
        start_round = state.round
        _truncate_metrics(out_dir, start_round, digest)
        csv_fh = open(_metrics_path(out_dir), "a")
    else:
        state = federation.initial_state(cfg)
        start_round = 0
        csv_fh = open(_metrics_path(out_dir), "w")
        csv_fh.write(f"# config {digest}\n{CSV_HEADER}\n")

    try:
        last_round = cfg.rounds if stop_after_round is None else min(cfg.rounds, stop_after_round)
        for round_index in range(start_round + 1, last_round + 1):
            state, stats = federation.run_round(state, clients, datasets, cfg)
            if _should_eval(cfg, round_index):
                reports = federation.evaluate_clients(state, clients, datasets, cfg)
                for site, (report, stat) in enumerate(zip(reports, stats)):
                    csv_fh.write(",".join([
                        str(round_index), str(site), _fmt(report.iou), _fmt(report.assd),
                        _fmt(stat["joint"]), _fmt(stat["coarse"]),
                        _fmt(stat["calib"]), _fmt(stat["con"])]) + "\n")
                csv_fh.flush()
            want_ckpt = (cfg.checkpoint_every > 0 and round_index % cfg.checkpoint_every == 0)
            if want_ckpt or round_index == cfg.rounds:
                save_checkpoint(_ckpt_path(out_dir, round_index), state, digest,
                                cfg.master_seed)
    finally:
        csv_fh.close()

    if last_round == cfg.rounds:
        emit_report(out_dir)
    return out_dir


def _truncate_metrics(out_dir: str, keep_up_to_round: int, digest: str):
    """Drop CSV rows past the resume point (they re-run identically)."""
    path = _metrics_path(out_dir)
    if not os.path.exists(path):
        raise FileNotFoundError(f"cannot resume: {path} is missing")
    with open(path) as fh:
        lines = fh.readlines()
    if not lines or lines[0].strip() != f"# config {digest}":
        raise ValueError(f"{path}: config digest does not match this run")
    kept = lines[:2]
    for line in lines[2:]:
        if int(line.split(",", 1)[0]) <= keep_up_to_round:
            kept.append(line)
    with open(path, "w") as fh:
        fh.writelines(kept)


def resume_experiment(run_dir: str, checkpoint_path: str | None = None) -> str:
    """Continue a run from its latest (or a given) checkpoint."""
    from .config import load_config

    cfg = load_config(os.path.join(run_dir, "config.txt"))
    cfg.out_dir = run_dir
    cfg.validate()
    if checkpoint_path is None:
        ckpt_dir = os.path.join(run_dir, "checkpoints")
        names = sorted(n for n in os.listdir(ckpt_dir) if n.endswith(".ckpt"))
        if not names:
            raise FileNotFoundError(f"no checkpoints in {ckpt_dir}")
        checkpoint_path = os.path.join(ckpt_dir, names[-1])
    state, digest, master_seed = load_checkpoint(checkpoint_path)
    if digest != cfg.digest():
        raise ValueError(
            f"checkpoint digest {digest} does not match config digest {cfg.digest()}")
    if master_seed != cfg.master_seed:
        raise ValueError("checkpoint master seed does not match the configuration")
    check_arrays(checkpoint_path, state, cfg)
    return run_experiment(cfg, resume_state=state)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def read_metrics(run_dir: str):
    """Returns (digest, rows) where rows are dicts of the CSV columns."""
    path = _metrics_path(run_dir)
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing metrics file: {path}")
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or not lines[0].startswith("# config "):
        raise ValueError(f"{path}: missing config digest line")
    digest = lines[0].split()[-1]
    columns = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        if not line:
            continue
        parts = line.split(",")
        row = dict(zip(columns, parts))
        rows.append({
            "round": int(row["round"]),
            "site": int(row["site"]),
            "iou": float(row["iou"]),
            "assd": float(row["assd"]),
            "loss_joint": float(row["loss_joint"]),
            "loss_coarse": float(row["loss_coarse"]),
            "loss_calib": float(row["loss_calib"]),
            "loss_con": float(row["loss_con"]),
        })
    return digest, rows


def final_scores(run_dir: str):
    """(per-site IoU list, per-site ASSD list, averaged IoU, averaged ASSD)."""
    _, rows = read_metrics(run_dir)
    if not rows:
        raise ValueError(f"{run_dir}: no metric rows")
    last = max(r["round"] for r in rows)
    finals = sorted((r for r in rows if r["round"] == last), key=lambda r: r["site"])
    ious = [r["iou"] for r in finals]
    assds = [r["assd"] for r in finals]
    return ious, assds, float(np.mean(ious)), float(np.mean(assds))


def emit_report(run_dir: str) -> str:
    """Summary table + plot curves, both pure functions of metrics.csv."""
    digest, rows = read_metrics(run_dir)
    if not rows:
        raise ValueError(f"{run_dir}: no metric rows to report")
    ious, assds, avg_iou, avg_assd = final_scores(run_dir)
    sites = list(range(len(ious)))

    width = 10
    header_cells = [f"site{k}" for k in sites] + ["Avg."]
    lines = [f"# summary for config {digest}",
             "metric  " + "".join(c.rjust(width) for c in header_cells)]
    lines.append("IoU     " + "".join(f"{v:.4f}".rjust(width) for v in ious + [avg_iou]))
    lines.append("ASSD    " + "".join(f"{v:.4f}".rjust(width) for v in assds + [avg_assd]))
    summary = "\n".join(lines) + "\n"
    with open(os.path.join(run_dir, "summary.txt"), "w") as fh:
        fh.write(summary)

    rounds = sorted({r["round"] for r in rows})
    curve_lines = [f"# config {digest}", "round,mean_iou,mean_assd,mean_loss_joint"]
    for rd in rounds:
        group = [r for r in rows if r["round"] == rd]
        curve_lines.append(",".join([
            str(rd),
            _fmt(np.mean([g["iou"] for g in group])),
            _fmt(np.mean([g["assd"] for g in group])),
            _fmt(np.mean([g["loss_joint"] for g in group]))]))
    with open(os.path.join(run_dir, "curves.csv"), "w") as fh:
        fh.write("\n".join(curve_lines) + "\n")
    return summary

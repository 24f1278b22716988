"""Experiment runner: drives rounds, records metrics, checkpoints, reports.

Run-directory layout:
    config.txt        effective configuration echo
    metrics.csv       one row per evaluated round per site (losses are the
                      round's training means; IoU and ASSD are the test split's,
                      averaged over classes); `_row_line` writes every row and
                      `read_metrics` reads them, the file's one format
    checkpoints/      round_NNNN.ckpt, the state after round NNNN: one JSON header
                      line, then the arrays' raw bytes (checkpoint.py)
    summary.txt       final per-site table, sites as columns, average last
    curves.csv        per-round site-averaged curves for plotting
"""

from __future__ import annotations

import ctypes
import os
import re

import numpy as np

from . import data as data_mod
from . import federation
from .checkpoint import check_arrays, load_checkpoint, save_checkpoint
from .config import ExperimentConfig, load_config
from .losses import LOSS_TERMS

_COLUMNS = ["round", "site", "iou", "assd"] + [f"loss_{t}" for t in LOSS_TERMS]
CSV_HEADER = ",".join(_COLUMNS)
_INT_COLUMNS = ("round", "site")

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


def _row_line(row: dict) -> str:
    """One metrics.csv line from a dict of the columns.  `.17g` round-trips,
    so a row that `read_metrics` parsed comes back as the same text."""
    return ",".join(str(row[c]) if c in _INT_COLUMNS else _fmt(row[c]) for c in _COLUMNS) + "\n"


def build_datasets(cfg: ExperimentConfig) -> list:
    """One SiteData per site: the generated benchmark, or the manifest's
    sites (`data.load_directory` checks the manifest on its own) once their
    count, image size and class count match the config."""
    if not cfg.manifest:
        return data_mod.generate_benchmark(cfg.benchmark_seed, cfg.sites,
                                           cfg.train_per_site, cfg.test_per_site,
                                           cfg.image_size, cfg.classes)
    sites = data_mod.load_directory(cfg.manifest)
    if len(sites) != cfg.sites:
        raise ValueError(f"manifest has {len(sites)} sites but config expects {cfg.sites}")
    _, classes, h, w = sites[0].train.masks.shape
    if (h, w) != (cfg.image_size, cfg.image_size):
        raise ValueError(f"manifest {cfg.manifest}: images are {h}x{w}px "
                         f"but config expects {cfg.image_size}x{cfg.image_size}px")
    if classes != cfg.classes:
        raise ValueError(
            f"manifest masks have {classes} class(es) but config expects {cfg.classes}")
    return sites


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


_CKPT_NAME = re.compile(r"round_([0-9]+)\.ckpt")


def _due(every: int, round_index: int, cfg: ExperimentConfig) -> bool:
    """The final round, or every `every` > 0 rounds."""
    return round_index == cfg.rounds or (every > 0 and round_index % every == 0)


def run_experiment(cfg: ExperimentConfig, stop_after_round: int | None = None,
                   resume_state=None) -> str:
    """Run (or continue) an experiment; returns the run directory."""
    cfg.validate()
    if not cfg.out_dir:
        raise ValueError("config needs an output directory")
    steady_heap()
    # a run whose data is bad fails before it creates any file
    datasets = build_datasets(cfg)
    out_dir = cfg.out_dir
    os.makedirs(os.path.join(out_dir, "checkpoints"), exist_ok=True)
    digest = cfg.digest()

    config_path = os.path.join(out_dir, "config.txt")
    if resume_state is None:
        with open(config_path, "w") as fh:
            fh.write(cfg.to_text())

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
            if _due(cfg.eval_every, round_index, cfg):
                scores = federation.evaluate_clients(state, datasets, cfg)
                for site, ((iou, assd), stat) in enumerate(zip(scores, stats)):
                    row = {"round": round_index, "site": site, "iou": iou, "assd": assd}
                    csv_fh.write(_row_line(row | {f"loss_{t}": stat[t] for t in LOSS_TERMS}))
                csv_fh.flush()
            if _due(cfg.checkpoint_every, round_index, cfg):
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
    found, rows = read_metrics(out_dir)
    if found != digest:
        raise ValueError(f"{path}: config digest does not match this run")
    kept = [f"# config {digest}\n{CSV_HEADER}\n"]
    kept += [_row_line(r) for r in rows if r["round"] <= keep_up_to_round]
    # rename a finished copy over the file, so a failed write loses no rows
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.writelines(kept)
    os.replace(tmp, path)


def resume_experiment(run_dir: str, checkpoint_path: str | None = None) -> str:
    """Continue a run from its latest (or a given) checkpoint."""
    config_path = os.path.join(run_dir, "config.txt")
    cfg = load_config(config_path)
    cfg.out_dir = run_dir
    try:
        cfg.validate()
    except ValueError as err:
        raise ValueError(f"{config_path}: {err}") from None
    if checkpoint_path is None:
        ckpt_dir = os.path.join(run_dir, "checkpoints")
        # the latest round by number: round_10000 sorts before round_9999
        by_round = {int(m.group(1)): m.group(0)
                    for m in map(_CKPT_NAME.fullmatch, os.listdir(ckpt_dir)) if m}
        if not by_round:
            raise FileNotFoundError(f"no round_NNNN.ckpt checkpoints in {ckpt_dir}")
        checkpoint_path = os.path.join(ckpt_dir, by_round[max(by_round)])
    state, digest, master_seed = load_checkpoint(checkpoint_path)
    if digest != cfg.digest():
        raise ValueError(f"{checkpoint_path}: checkpoint digest {digest} does not match "
                         f"config digest {cfg.digest()}")
    if master_seed != cfg.master_seed:
        raise ValueError(f"{checkpoint_path}: master seed does not match the configuration")
    check_arrays(checkpoint_path, state, cfg)
    return run_experiment(cfg, resume_state=state)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def read_metrics(run_dir: str):
    """Returns (digest, rows) where rows are dicts of the CSV columns.  The
    column line must be `CSV_HEADER` and each row one number per column; a
    file that breaks either raises ValueError naming ``path:line``."""
    path = _metrics_path(run_dir)
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing metrics file: {path}")
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or not lines[0].startswith("# config "):
        raise ValueError(f"{path}: missing config digest line")
    digest = lines[0].split()[-1]
    if lines[1:2] != [CSV_HEADER]:
        raise ValueError(f"{path}:2: the column line is not {CSV_HEADER!r}")
    rows = []
    for number, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        try:
            rows.append({c: int(v) if c in _INT_COLUMNS else float(v)
                         for c, v in zip(_COLUMNS, line.split(","), strict=True)})
        except ValueError:
            raise ValueError(f"{path}:{number}: expected {len(_COLUMNS)} numeric cells, "
                             f"got {line!r}") from None
    return digest, rows


def final_scores(run_dir: str):
    """(per-site IoU list, per-site ASSD list, averaged IoU, averaged ASSD)."""
    return _final_scores(run_dir, read_metrics(run_dir)[1])


def _final_scores(run_dir: str, rows: list):
    """`final_scores` over rows already read from the run's metrics.csv."""
    if not rows:
        raise ValueError(f"{run_dir}: no metric rows to report")
    last = max(r["round"] for r in rows)
    finals = sorted((r for r in rows if r["round"] == last), key=lambda r: r["site"])
    ious = [r["iou"] for r in finals]
    assds = [r["assd"] for r in finals]
    return ious, assds, float(np.mean(ious)), float(np.mean(assds))


def emit_report(run_dir: str) -> str:
    """Summary table + plot curves, both pure functions of metrics.csv."""
    digest, rows = read_metrics(run_dir)
    ious, assds, avg_iou, avg_assd = _final_scores(run_dir, rows)
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

"""Command-line entry points: run, resume, report, gen-data.

A command that starts from a configuration (`run`, `gen-data`) configures it
one way: the defaults of `ExperimentConfig`, then ``--config FILE``, then each
``--set KEY=VALUE`` in order.  `gen-data` writes the sites that `run`
generates for the same config, so a run of that config can read them back.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import data as data_mod
from .config import MODE_GRAMMAR, ExperimentConfig, apply_overrides, load_config
from .runner import build_datasets, emit_report, resume_experiment, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcfed",
        description="Personalized federated segmentation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment")
    run.add_argument("--out", help="output directory (overrides out_dir)")

    res = sub.add_parser("resume", help="continue a run from its checkpoint")
    res.add_argument("run_dir")
    res.add_argument("--checkpoint", help="specific checkpoint file")

    rep = sub.add_parser("report", help="regenerate summary.txt and curves.csv")
    rep.add_argument("run_dir")

    gen = sub.add_parser("gen-data", help="write a run's synthetic sites to disk")
    gen.add_argument("--out", required=True, help="data directory")

    for configured in (run, gen):
        configured.add_argument("--config", help="key=value config file")
        configured.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                                help="set a config key, after --config (repeatable); "
                                     f"mode is {MODE_GRAMMAR}")
    return parser


def _config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    return apply_overrides(cfg, args.set)


def _cmd_run(args) -> int:
    cfg = _config(args)
    if args.out:
        cfg.out_dir = args.out
    out = run_experiment(cfg)
    print(f"run complete: {out}")
    with open(os.path.join(out, "summary.txt")) as fh:
        print(fh.read(), end="")
    return 0


def _cmd_resume(args) -> int:
    out = resume_experiment(args.run_dir, args.checkpoint)
    print(f"resumed run complete: {out}")
    return 0


def _cmd_report(args) -> int:
    print(emit_report(args.run_dir), end="")
    return 0


def _cmd_gen_data(args) -> int:
    cfg = _config(args).validate()
    if cfg.manifest:
        raise ValueError(f"gen-data generates sites, but the config names manifest {cfg.manifest}")
    manifest = data_mod.write_dataset(build_datasets(cfg), args.out)
    total = cfg.sites * (cfg.train_per_site + cfg.test_per_site)
    print(f"wrote {total} samples across {cfg.sites} sites; manifest: {manifest}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "resume": _cmd_resume,
                "report": _cmd_report, "gen-data": _cmd_gen_data}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

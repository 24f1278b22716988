"""Command-line entry points: run, resume, report, gen-data."""

from __future__ import annotations

import argparse
import os
import sys

from . import data as data_mod
from .config import MODE_GRAMMAR, ExperimentConfig, apply_overrides, load_config
from .runner import emit_report, resume_experiment, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcfed",
        description="Personalized federated segmentation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment")
    run.add_argument("--config", help="key=value config file")
    run.add_argument("--out", help="output directory (overrides config)")
    run.add_argument("--mode", help=MODE_GRAMMAR)
    run.add_argument("--rounds", type=int)
    run.add_argument("--sites", type=int)
    run.add_argument("--master-seed", type=int, dest="master_seed")
    run.add_argument("--benchmark-seed", type=int, dest="benchmark_seed")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override any config key (repeatable)")

    res = sub.add_parser("resume", help="continue a run from its checkpoint")
    res.add_argument("run_dir")
    res.add_argument("--checkpoint", help="specific checkpoint file")

    rep = sub.add_parser("report", help="regenerate summary.txt and curves.csv")
    rep.add_argument("run_dir")

    gen = sub.add_parser("gen-data", help="write a synthetic benchmark to disk")
    gen.add_argument("--out", required=True)
    defaults = ExperimentConfig()
    for name in ("benchmark_seed", "sites", "train_per_site", "test_per_site", "image_size"):
        gen.add_argument("--" + name.replace("_", "-"), type=int, dest=name,
                         default=getattr(defaults, name))
    return parser


def _cmd_run(args) -> int:
    cfg = ExperimentConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    for name in ("mode", "rounds", "sites", "master_seed", "benchmark_seed"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if args.out:
        cfg.out_dir = args.out
    apply_overrides(cfg, args.set)
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
    for name, least in (("benchmark_seed", 0), ("sites", 1), ("train_per_site", 1),
                        ("test_per_site", 1)):
        if getattr(args, name) < least:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be >= {least}, got {getattr(args, name)}")
    # every run has at least two stages, so one 2x pool and a deepest feature of 2 px
    if args.image_size < 4 or args.image_size % 2:
        raise ValueError(f"--image-size must be even and >= 4, got {args.image_size}")
    per_site = data_mod.benchmark_samples(args.benchmark_seed, args.sites,
                                          args.train_per_site, args.test_per_site,
                                          args.image_size)
    manifest = data_mod.write_dataset(per_site, args.out)
    total = sum(len(s) for s in per_site)
    print(f"wrote {total} samples across {args.sites} sites; manifest: {manifest}")
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

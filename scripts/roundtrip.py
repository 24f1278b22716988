#!/usr/bin/env python3
"""Check that a parallel resume equals an uninterrupted serial run.

    python scripts/roundtrip.py OUT_DIR

Every (mode, classes) of `ROUND_TRIPS` runs in float64 and float32 on this
tree's sources: a serial run of 2 sites, 2 rounds, 32 px, channels 8,16,32,
batch 3 and a checkpoint every round, into ``OUT_DIR/<mode>-<classes>-<dtype>``;
then a ``parallel_clients = true`` resume from its round-1 checkpoint and
``lcfed report``.  Every file the serial run writes and every file the resume
rewrites is hashed with sha256.

Exits 0 when every resumed file equals the serial run's, 1 otherwise (each
differing file is named), 2 when a command fails.  `scripts/identity.py` runs
the same list on two trees.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# lcfed shares the PCS generator; fedrep-head's model has none;
# fedrep-head+pcs and fedrep-head+hc each run one half of the batched PCS/HC code alone;
# local averages no array, and fedavg averages the heads in g/;
# fedbn+pcs keeps the U-Net's norms local and averages the generator's;
# fedper-dec+pcs+hc keeps the decoder local, lg-fedavg the encoder;
# float32 runs HC's Gaussian and the rest of training in single precision;
# lcfed with 2 classes averages HC's attention over the class channels
ROUND_TRIPS = [("lcfed", 1), ("fedrep-head", 1), ("fedrep-head+pcs", 1), ("fedrep-head+hc", 1),
               ("local", 1), ("fedavg", 1), ("fedbn+pcs", 1), ("fedper-dec+pcs+hc", 1),
               ("lg-fedavg", 1), ("lcfed", 2)]
DTYPES = ("float64", "float32")
SETTINGS = ("sites=2", "rounds=2", "image_size=32", "channels=8,16,32", "batch_size=3",
            "checkpoint_every=1")
SERIAL = ("metrics.csv", "checkpoints/round_0001.ckpt", "checkpoints/round_0002.ckpt",
          "summary.txt", "curves.csv")
RESUMED = ("checkpoints/round_0002.ckpt", "metrics.csv", "summary.txt", "curves.csv")


class RunFailed(Exception):
    pass


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def lcfed(tree: str, *args: str):
    """Run ``python -m lcfed.cli ARGS`` on `tree`'s sources, with one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "lcfed.cli", *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RunFailed(f"{tree}: lcfed {' '.join(args)} exited {done.returncode}:\n"
                        f"{done.stderr.strip()}")


def label(key) -> str:
    mode, classes, dtype = key
    return f"{mode} {classes}-class {dtype}"


def resume_differences(files: dict) -> list:
    """The files of one run that its resume did not rewrite byte for byte."""
    return [f for f in RESUMED if files[f"resumed {f}"] != files[f]]


def run_tree(tree: str, runs_dir: str) -> dict:
    """{(mode, classes, dtype): {file: sha256}} over the round-trip list;
    resumed files are keyed ``resumed <file>``."""
    settings = [arg for item in SETTINGS for arg in ("--set", item)]
    digests = {}
    for mode, classes in ROUND_TRIPS:
        for dtype in DTYPES:
            out = os.path.join(runs_dir, f"{mode}-{classes}-{dtype}")
            lcfed(tree, "run", "--out", out, "--set", f"mode={mode}", *settings,
                  "--set", f"dtype={dtype}", "--set", f"classes={classes}")
            files = {f: sha256(os.path.join(out, f)) for f in SERIAL}
            config = os.path.join(out, "config.txt")
            with open(config) as fh:
                text = fh.read()
            if "parallel_clients = false\n" not in text:
                raise RunFailed(f"{config}: no 'parallel_clients = false' line to switch")
            with open(config, "w") as fh:
                fh.write(text.replace("parallel_clients = false\n", "parallel_clients = true\n"))
            lcfed(tree, "resume", out, "--checkpoint",
                  os.path.join(out, "checkpoints", "round_0001.ckpt"))
            lcfed(tree, "report", out)
            files |= {f"resumed {f}": sha256(os.path.join(out, f)) for f in RESUMED}
            digests[(mode, classes, dtype)] = files
    return digests


def main(out_dir: str) -> int:
    try:
        digests = run_tree(REPO, out_dir)
    except RunFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    differing = [f"{label(key)}: resumed {f} is not the serial run's"
                 for key, files in digests.items() for f in resume_differences(files)]
    for line in differing:
        print(line)
    total = len(digests) * len(RESUMED)
    print(f"{total - len(differing)} of {total} resumed files equal their serial run's")
    return 1 if differing else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", help="directory the runs are written into")
    sys.exit(main(parser.parse_args().out_dir))

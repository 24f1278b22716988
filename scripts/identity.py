#!/usr/bin/env python3
"""Compare the run outputs of this working tree with those of a git revision.

    python scripts/identity.py REV

REV is checked out with ``git worktree add`` into a temporary directory, which
is removed again however the script ends.  In each tree, every (mode, classes)
of the CI round trip (``.github/workflows/tests.yml``) runs in float64 and
float32: a serial run of 2 sites, 2 rounds, 32 px, channels 8,16,32, batch 3
and a checkpoint every round, then a ``parallel_clients = true`` resume from
its round-1 checkpoint and ``lcfed report``.  Every file the serial run writes
and every file the resume rewrites is hashed with sha256.

Prints a markdown table with one row per run: the first 16 hex digits of each
serial file's digest in this tree (with REV's next to it where they differ),
and whether the resumed files equal the serial ones.  The last line is the
verdict.  Exits 0 when every file is byte-identical between the trees and
every resume equals its serial run, 1 otherwise (each differing file is
named), 2 when a run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ROUND_TRIPS = [("lcfed", 1), ("fedrep-head", 1), ("fedrep-head+pcs", 1), ("fedrep-head+hc", 1),
               ("local", 1), ("fedavg", 1), ("fedbn+pcs", 1), ("fedper-dec+pcs+hc", 1),
               ("lg-fedavg", 1), ("lcfed", 2)]
DTYPES = ("float64", "float32")
SETTINGS = ("--sites", "2", "--rounds", "2", "--set", "image_size=32",
            "--set", "channels=8,16,32", "--set", "batch_size=3", "--set", "checkpoint_every=1")
SERIAL = ("metrics.csv", "checkpoints/round_0001.ckpt", "checkpoints/round_0002.ckpt",
          "summary.txt", "curves.csv")
RESUMED = ("checkpoints/round_0002.ckpt", "metrics.csv", "summary.txt", "curves.csv")


class RunFailed(Exception):
    pass


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def lcfed(tree: str, *args: str):
    """Run ``python -m lcfed.cli ARGS`` on `tree`'s sources, with one BLAS
    thread as in CI."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "lcfed.cli", *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RunFailed(f"{tree}: lcfed {' '.join(args)} exited {done.returncode}:\n"
                        f"{done.stderr.strip()}")


def run_tree(tree: str, runs_dir: str) -> dict:
    """{(mode, classes, dtype): {file: sha256}} over the round-trip list;
    resumed files are keyed ``resumed <file>``."""
    digests = {}
    for mode, classes in ROUND_TRIPS:
        for dtype in DTYPES:
            out = os.path.join(runs_dir, f"{mode}-{classes}-{dtype}")
            lcfed(tree, "run", "--out", out, "--mode", mode, *SETTINGS,
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


def report(rev: str, base: dict, change: dict) -> list:
    """Print the table and the verdict; returns the names of differing files."""
    print("| run | " + " | ".join(os.path.basename(f) for f in SERIAL) + " | parallel resume |")
    print("|---" * (len(SERIAL) + 2) + "|")
    differing = []
    for key, files in change.items():
        cells = []
        for f in SERIAL:
            cell = f"`{files[f][:16]}`"
            if base[key][f] != files[f]:
                cell += f" ({rev}: `{base[key][f][:16]}`)"
            cells.append(cell)
        resume_diff = [f for f in RESUMED if files[f"resumed {f}"] != files[f]]
        run = f"{key[0]} {key[1]}-class {key[2]}"
        cells.append("≠ serial: " + ", ".join(resume_diff) if resume_diff else "= serial")
        print(f"| {run} | " + " | ".join(cells) + " |")
        differing += [f"{run}: {f}" for f in files if base[key][f] != files[f]]
        differing += [f"{run}: resumed {f} is not the serial run's" for f in resume_diff]
    total = sum(len(files) for files in change.values())
    if differing:
        print(f"DIFFERENT: {len(differing)} differences in {total} files against {rev}:")
        for name in differing:
            print(f"  {name}")
    else:
        print(f"IDENTICAL: {total} of {total} files are byte-identical to {rev}, "
              f"and every parallel resume equals its serial run")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="lcfed-identity-") as tmp:
        worktree = os.path.join(tmp, "rev")
        added = subprocess.run(["git", "-C", REPO, "worktree", "add", "--detach", "--quiet",
                                worktree, args.rev])
        if added.returncode != 0:
            print(f"error: cannot check out {args.rev}", file=sys.stderr)
            return 2
        try:
            base = run_tree(worktree, os.path.join(tmp, "runs-rev"))
            change = run_tree(REPO, os.path.join(tmp, "runs-tree"))
        except RunFailed as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        finally:
            subprocess.run(["git", "-C", REPO, "worktree", "remove", "--force", worktree],
                           check=False)
            subprocess.run(["git", "-C", REPO, "worktree", "prune"], check=False)
    return 1 if report(args.rev, base, change) else 0


if __name__ == "__main__":
    sys.exit(main())

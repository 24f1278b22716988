#!/usr/bin/env python3
"""Compare the run outputs of this working tree with those of a git revision.

    python scripts/identity.py REV

REV is checked out with ``git worktree add`` into a temporary directory, which
is removed again however the script ends.  Each tree runs the round-trip list
of `scripts/roundtrip.py`: in float64 and float32, a serial run, then a
``parallel_clients = true`` resume from its round-1 checkpoint and
``lcfed report``.  Every file the serial run writes and every file the resume
rewrites is hashed with sha256.

Prints a markdown table with one row per run: the first 16 hex digits of each
serial file's digest in this tree (with REV's next to it where they differ),
and whether the resumed files equal the serial ones.  The last line is the
verdict.  Exits 0 when every file is byte-identical between the trees and
every resume equals its serial run, 1 otherwise (each differing file is
named), 2 when a run fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

from roundtrip import REPO, SERIAL, RunFailed, label, resume_differences, run_tree


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
        resume_diff = resume_differences(files)
        run = label(key)
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

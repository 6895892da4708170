#!/usr/bin/env python3
"""Print one ``sha256  relpath`` line per run artifact under ROOT.

Every file is digested as it is but two, whose wall times differ between
otherwise identical runs: ``timings.json`` is left out, and
``simulation.csv`` is digested with its last column (``wall_time_s``) cut
from every line.  Two trees of runs of the same config and seeds then give
the same lines exactly when every other artifact is byte-identical, so
comparing two commits is one ``diff``:

    python scripts/artifact_digests.py runs/desk > before.txt
    (check out the other commit, rerun into the same --out)
    python scripts/artifact_digests.py runs/desk > after.txt
    diff before.txt after.txt

Run both sides into the same output directory: each record holds the
config, ``out_dir`` included.  A ROOT with no file to digest is refused,
so a wrong or empty path cannot compare equal to another.
"""
import argparse
import hashlib
import os
import sys


def digest_lines(root: str) -> list[str]:
    """The ``sha256  relpath`` lines of the files under ``root``, by path."""
    lines = []
    for folder, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            if name == "timings.json":
                continue
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "simulation.csv":
                data = b"".join(
                    line.rpartition(b",")[0] + b"\n" for line in data.splitlines()
                )
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {rel}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", help="directory of runs, such as an --out directory")
    args = ap.parse_args(argv)
    if not os.path.isdir(args.root):
        ap.error(f"{args.root} is not a directory")
    lines = digest_lines(args.root)
    if not lines:
        ap.error(f"{args.root} holds no file to digest")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

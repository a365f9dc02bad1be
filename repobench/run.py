#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Run from the root of a checkout. It builds the real `colord` binary from
the workspace and the `repobench` package next to this file, both in
release mode, into $CARGO_TARGET_DIR (default `.bench_build`), then runs
one workload. The last line of stdout is the result JSON. Build output
goes to stderr. The exit code is that of the benchmark: non-zero on any
failed correctness check.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-colorize", "colord-serve")


def fail(msg):
    print(f"repobench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """SHA-256 over the sources that are built, so a result can be tied
    to its code where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src", "repobench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            for f in fs
            if f.endswith((".rs", ".toml", ".lock"))
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def cargo(*args):
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail(f"build failed: cargo build {' '.join(args)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args()

    for needed in ("Cargo.toml", os.path.join("crates", "colord")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)  # a relative path is taken from the root
    os.environ["CARGO_TARGET_DIR"] = target
    cargo("-p", "colord", "--bin", "colord")
    cargo("--manifest-path", os.path.join(HERE, "Cargo.toml"))

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "repobench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--size", args.size,
        "--colord", os.path.join(release, "colord"),
        "--out", os.path.join(target, "repobench-results"),
        "--source", source_id(),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()

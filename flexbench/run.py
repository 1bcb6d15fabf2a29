#!/usr/bin/env python3
"""Runs the flexbench benchmark, building it first when needed.

Usage, from the repository root:

    python3 flexbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

The binary is rebuilt with `cargo build --release` only when the
sources differ from the ones it was built from: a stamp beside the
binary holds a hash of this tree's path and of every source file's path
and contents, so an edit, a deleted file, or another tree sharing the
target directory all trigger a build. Calling cargo on every run would
rebuild the serving crate each time in a checkout without `.git`,
because its build script watches `.git/HEAD`. Cargo's target directory
is `$CARGO_TARGET_DIR`, or `flexbench/target` when that is unset.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "flexbench"]
SKIP = {"target", "traces", ".bench_build"}


def source_files():
    for entry in SOURCES:
        path = os.path.join(ROOT, entry)
        if os.path.isfile(path):
            yield path
        for top, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in SKIP)
            for name in sorted(files):
                yield os.path.join(top, name)


def fingerprint():
    digest = hashlib.sha256(ROOT.encode())
    for path in source_files():
        digest.update(b"\0" + os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        sys.exit("flexbench: no crates/ beside flexbench/; run it from a repository checkout")
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    )
    binary = os.path.join(target, "release", "flexbench")
    stamp = binary + ".sources"
    wanted = fingerprint()
    built = None
    if os.path.exists(binary) and os.path.exists(stamp):
        with open(stamp) as f:
            built = f.read().strip()
    if built != wanted:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml"),
             "--target-dir", target],
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            sys.exit(build.returncode)
        with open(stamp, "w") as f:
            f.write(wanted + "\n")
    sys.exit(subprocess.run([binary] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()

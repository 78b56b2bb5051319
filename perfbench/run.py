#!/usr/bin/env python3
"""Builds `rpr` and the benchmark from source, then runs one measurement.

    python3 perfbench/run.py --workload hit_small --seed 1 --seconds 20 --trace 0

Run from the repository root (the benchmark runs there, pinned with its
server to one CPU). Build output goes to `$CARGO_TARGET_DIR`
(default `.bench_build`); the last line of standard output is the
result JSON. Exits non-zero without a result when the sources or the
build are missing.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates", "cli"))
    ):
        sys.exit("perfbench: the rpr sources (Cargo.toml, crates/) are not next to the benchmark")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "rpr-cli"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    exe = os.path.join(target, "release", "perfbench")
    rpr = os.path.join(target, "release", "rpr")
    sys.stdout.flush()
    os.chdir(ROOT)
    # Client and server share one CPU, so the client's calibration times
    # the CPU the server runs on; the closed loop never needs two.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.execv(exe, [exe, *sys.argv[1:], "--rpr", rpr])


if __name__ == "__main__":
    main()

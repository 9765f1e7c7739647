#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload hourly --seed 1 --seconds 15 --trace 0

`--trace 0` runs the `perfbench` binary and prints the end-to-end
metrics; `--trace 1` runs `perfbench-traced` (the counting allocator
installed) and prints the per-layer metrics. Both print, as the last
line of standard output, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Any other arguments (`--scale tiny`, `--out DIR`)
are passed through.

`python3 perfbench/run.py --smoke` instead runs every workload at tiny
scale, traced and untraced, and fails unless each reports
`"correct": true`.

The build goes to `$CARGO_TARGET_DIR` (default `.bench_build` at the
repository root). Cargo's output goes to standard error. Without the
repository's crates next to this directory the build fails and so does
this script, with no result printed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hourly", "consistency", "ocspd-serve"]


def build():
    """Build both benchmark binaries and `ocspd`; return the binary dir."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(os.path.abspath(target), "release")


def flag(args, name, default):
    for key, value in zip(args, args[1:]):
        if key == name:
            return value
    return default


def binary_for(bin_dir, args):
    traced = flag(args, "--trace", "0") == "1"
    return os.path.join(bin_dir, "perfbench-traced" if traced else "perfbench")


def run(bin_dir, args):
    """Run one workload, streaming its output; return its exit code."""
    return subprocess.run([binary_for(bin_dir, args)] + args, cwd=ROOT).returncode


def smoke(bin_dir):
    """Every workload at tiny scale, untraced and traced."""
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--scale", "tiny"]
            proc = subprocess.run([binary_for(bin_dir, args)] + args, cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            correct = proc.returncode == 0 and lines and json.loads(lines[-1])["correct"]
            print(f"smoke {workload} trace={trace}: {'ok' if correct else 'FAILED'}")
            ok = ok and bool(correct)
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    bin_dir = build()
    if args == ["--smoke"]:
        return smoke(bin_dir)
    return run(bin_dir, args)


if __name__ == "__main__":
    sys.exit(main())

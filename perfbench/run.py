#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the host. Build
output goes to standard error. The build lives in $CARGO_TARGET_DIR, or
.bench_build when that is unset, relative to the checkout root.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper_grid", "replica_grid", "recorded_grid", "cluster_1k")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Build the benchmark and run one workload of it.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (>= 0); seed 1 has pinned output digests")
    parser.add_argument("--seconds", type=int, default=10, help="measuring time, 1..600")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--check", action="store_true",
                        help="run serial, 2-thread and traced once each and check outputs only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in 1..600")
    return args


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    log = sys.stderr
    stamp = os.path.join(out, "perfbench.configured")
    if not os.path.exists(stamp):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=log, stderr=log, cwd=ROOT)
        open(stamp, "w").close()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=log, stderr=log, cwd=ROOT)
    return os.path.join(out, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the simulator sources."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
        if commit:
            return commit
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for parent, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            if "__pycache__" in parent:
                continue
            for name in sorted(files):
                path = os.path.join(parent, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha1:" + digest.hexdigest()


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench/run.py: build failed: {error}", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", source_id()]
    if args.check:
        command.append("--check")
    if args.trace:
        command += ["--spans_out",
                    os.path.join(build_dir(), f"spans_{args.workload}_{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Steadiness harness: runs one workload as two sets of runs and compares them.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload paper_grid --runs 10 --seconds 20

Set A uses seeds 1..runs and set B seeds runs+1..2*runs, each run one
`perfbench/run.py --trace 0` process, one after another. For every end-to-end
metric in BENCHMARK.json it prints each set's median and quartiles
(statistics.quantiles(n=4)), the spread (q3 - q1) / median, and whether

  * each set's spread is within the metric's bound (setup_s is exempt), and
  * set B's median is no worse than set A's by more than the bound.

It also prints a third of the bound as the target for the spread, and, for
comparison only, the spread of the raw host-time throughput from the host
record (host_jobs_per_s), which the reference kernel takes out of
jobs_per_ref_s. Exit status is 0 when every check passes, 1 otherwise.
--json FILE saves the raw results.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Raw throughput in host seconds, from the host record; informational.
HOST_RATE = "host_jobs_per_s"


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    begin = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - begin
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"run failed: workload {workload} seed {seed} exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"run incorrect or failing: workload {workload} seed {seed}")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    values[HOST_RATE] = json.loads(lines[-2])[HOST_RATE]
    return values, elapsed


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def main(argv):
    parser = argparse.ArgumentParser(prog="perfbench/steady.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 2)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; default run_seconds from BENCHMARK.json")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2,
                        help="1 runs set A only (a cheap spread check)")
    parser.add_argument("--json", default=None, help="write the raw per-run metrics here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    sets = []
    for index in range(args.sets):
        runs = []
        for i in range(args.runs):
            seed = index * args.runs + i + 1
            values, elapsed = run_once(args.workload, seed, seconds)
            runs.append(values)
            print(f"set {'AB'[index]} seed {seed} ({elapsed:.1f} s): " +
                  ", ".join(f"{m['name']}={values[m['name']]:.6g}" for m in metrics) +
                  f", {HOST_RATE}={values[HOST_RATE]:.6g}", flush=True)
        sets.append(runs)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "sets": sets}, f, indent=1)

    ok = True
    print(f"\n{args.workload}: {args.runs} runs per set, {seconds} s each")
    print(f"{'metric':<16} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>7} "
          f"{'bound':>6} {'bound/3':>7}  verdict")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for index, runs in enumerate(sets):
            q1, median, q3, spread = summarize([run[name] for run in runs])
            medians.append(median)
            if name == "setup_s":
                verdict = "exempt"
            else:
                verdict = "ok" if spread <= bound else "TOO NOISY"
                verdict += "" if spread < bound / 3 else " (above bound/3)"
                ok = ok and spread <= bound
            print(f"{name:<16} {'AB'[index]:>3} {q1:12.6g} {median:12.6g} {q3:12.6g} "
                  f"{spread:7.2%} {bound:6.2f} {bound / 3:7.3f}  {verdict}")
        if len(medians) == 2:
            lower = metric["better"] == "lower"
            worse = (medians[1] - medians[0]) / medians[0]
            worse = worse if lower else -worse
            agree = worse <= bound
            ok = ok and agree
            print(f"{name:<16}   B vs A: {worse:+.2%} worse (bound {bound:.0%}) "
                  f"{'agree' if agree else 'DISAGREE'}")
    for index, runs in enumerate(sets):
        q1, median, q3, spread = summarize([run[HOST_RATE] for run in runs])
        print(f"{HOST_RATE:<16} {'AB'[index]:>3} {q1:12.6g} {median:12.6g} {q3:12.6g} "
              f"{spread:7.2%}  (informational, no bound)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

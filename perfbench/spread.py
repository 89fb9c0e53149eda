#!/usr/bin/env python3
"""Run the benchmark several times per workload, each run with its own
seed, and report every end-to-end metric's median and quartile spread
(Q3 - Q1 over the median, statistics.quantiles(n=4)) against its bound.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--workloads reproduce,prune_scale]
                                [--record perfbench/trajectory.json] [--traced]

--record appends the runs, with their fingerprints, to a trajectory file;
--traced adds one traced run per workload (not part of the spreads).
Exits 1 when a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    elapsed = time.time() - started
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    record = {"workload": workload, "seed": seed, "trace": trace, "wall_s": round(elapsed, 2),
              "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        tag, _, body = line.partition(" ")
        if tag in ("fingerprint", "info"):
            record[tag] = json.loads(body)
    return record


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--record", default="")
    parser.add_argument("--traced", action="store_true",
                        help="also make (and record) one traced run per workload")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    ok = True
    records = []
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            if not runs[-1]["result"]["correct"]:
                ok = False
                print("%s seed %d: incorrect" % (workload, seed))
        records.extend(runs)
        if args.traced:
            traced = run_once(workload, args.first_seed, spec["run_seconds"], 1)
            ok = ok and traced["result"]["correct"]
            records.append(traced)
        print("%s (%d runs, seeds %d..%d, %.0f s)" % (
            workload, len(runs), args.first_seed, args.first_seed + args.runs - 1,
            sum(r["wall_s"] for r in runs)))
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            within = spread <= metric["bound"]
            ok = ok and within
            print("  %-12s median %-12.6g spread %6.3f  bound %.2f  %s  [%s]" % (
                metric["name"], med, spread, metric["bound"], "ok" if within else "OVER",
                " ".join("%.4g" % v for v in values)))
    if args.record:
        history = []
        if os.path.isfile(args.record):
            with open(args.record) as f:
                history = json.load(f)
        history.extend(records)
        with open(args.record, "w") as f:
            json.dump(history, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

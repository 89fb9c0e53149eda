#!/usr/bin/env python3
"""Self-test of the traced benchmark run.

    python3 perfbench/selftest.py [--seed 7] [--other-seed 8]
                                  [--workloads reproduce,prune_scale,service_mixed]

For each workload: two traced runs on one seed must report exactly equal
work counts (fne_bench itself checks that its span file parses and that
every parent id resolves, and counts a failure otherwise), and a traced
run on a second seed must keep the layer shape the workload was chosen
for.  Exits 1 on any failure.
"""

import argparse
import json
import sys

from spread import run_once

# Counts that are a pure function of the workload's inputs.
COUNTS = {
    "reproduce": ["prune.runs", "prune.iterations", "prune.eigensolves", "prune.stale_sweeps",
                  "prune.disconnected_culls", "prune.relabel_bfs_vertices",
                  "cache.graph_builds", "cache.leases", "store.records", "store.hits",
                  "store.misses", "campaign.jobs", "campaign.cells", "metric.split_jobs"],
    "prune_scale": ["prune.runs", "prune.iterations", "prune.eigensolves", "prune.stale_sweeps",
                    "prune.disconnected_culls", "prune.relabel_bfs_vertices",
                    "cache.graph_builds", "cache.leases", "campaign.jobs", "campaign.cells",
                    "ingest.bytes"],
    "service_mixed": ["service.completed", "service.req_bytes", "service.resp_bytes"],
}


def shape_problems(workload, record):
    m = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    info = record.get("info", {})
    problems = []
    if not record["result"]["correct"]:
        problems.append("run reported failures")
    if workload in ("reproduce", "prune_scale") and m["trace.coverage"] < 0.95:
        problems.append("top-level spans cover %.3f of traced wall" % m["trace.coverage"])
    if workload == "reproduce":
        # span_estimate must be the largest share of the cold pass.
        rest = info["traced_cold_ms"] - m["metric.span_estimate_ms"]
        if m["metric.span_estimate_ms"] <= rest:
            problems.append("span_estimate is %.0f ms of a %.0f ms cold pass"
                            % (m["metric.span_estimate_ms"], info["traced_cold_ms"]))
    if workload == "prune_scale":
        if info["prune_share_of_pass"] <= 0.5:
            problems.append("prune is only %.2f of the pass" % info["prune_share_of_pass"])
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--other-seed", type=int, default=8)
    parser.add_argument("--workloads", default="reproduce,prune_scale,service_mixed")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        seconds = json.load(f)["run_seconds"]
    failures = 0
    for workload in args.workloads.split(","):
        failed = False
        first = run_once(workload, args.seed, seconds, 1)
        second = run_once(workload, args.seed, seconds, 1)
        other = run_once(workload, args.other_seed, seconds, 1)
        for name in COUNTS[workload]:
            a = first["result"]["metrics"][name]["value"]
            b = second["result"]["metrics"][name]["value"]
            if a != b:
                failed = True
                print("%s: %s differs between two traced runs of seed %d: %r vs %r"
                      % (workload, name, args.seed, a, b))
        for seed, record in ((args.seed, first), (args.seed, second), (args.other_seed, other)):
            for problem in shape_problems(workload, record):
                failed = True
                print("%s seed %d: %s" % (workload, seed, problem))
        print("%s: %s" % (workload, "FAIL" if failed else "ok"))
        failures += failed
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the fne benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
fne library and fne_bench (perfbench/CMakeLists.txt) in .bench_build
(or $CARGO_TARGET_DIR when it is a relative path); later runs rebuild
incrementally.  fne_bench's stdout is passed through: its last line is
the result object.  Build output and diagnostics go to stderr.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.relpath(HERE)
EXEC_THREADS = 2  # kExecThreads in bench.hpp
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", "")
    if target and not os.path.isabs(target) and ".." not in target.split(os.sep):
        return target
    return ".bench_build"


def source_id():
    """The git sha when the checkout is a repository, else a digest of the
    library and benchmark sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()


def build(out_dir, jobs):
    if not os.path.isfile(os.path.join("src", "fne.hpp")):
        fail("no fne source tree (src/fne.hpp) under " + os.getcwd())
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    made = subprocess.run(["cmake", "--build", out_dir, "--target", "fne_bench", "-j", str(jobs)],
                          stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        fail("build failed")
    return os.path.join(out_dir, "fne_bench")


def check_result(line, trace):
    """The result line must name exactly the metrics BENCHMARK.json lists."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has keys " + ", ".join(sorted(result)))
    spec_path = "BENCHMARK.json"
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if wanted != got:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, or units differ"
             % (missing, extra))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    nproc = len(os.sched_getaffinity(0))
    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        binary = build(out_dir, nproc)

        # One run at a time holds the lock, so the scratch path (which the
        # generated inputs name) is the same for every run of a seed.
        work = os.path.join(out_dir, "work")
        shutil.rmtree(work, ignore_errors=True)
        env = dict(os.environ)
        # Executor threads x OpenMP threads <= nproc: the nested `omp
        # parallel` regions would otherwise oversubscribe the cores.
        env["OMP_NUM_THREADS"] = str(max(1, nproc // EXEC_THREADS))
        cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%s" % args.seconds, "--trace=" + args.trace,
               "--work=" + work, "--source=" + source_id()]
        try:
            run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                 timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            shutil.rmtree(work, ignore_errors=True)
            fail("fne_bench did not finish within %d s" % RUN_TIMEOUT_S)
        # Keep what a traced run leaves: its span file and generated inputs.
        traces = os.path.join(out_dir, "traces")
        for name in sorted(os.listdir(work)) if os.path.isdir(work) else []:
            if name.endswith((".json", ".jsonl")) and os.path.isfile(os.path.join(work, name)):
                os.makedirs(traces, exist_ok=True)
                shutil.copy(os.path.join(work, name),
                            os.path.join(traces, "%s-seed%d.%s" % (args.workload, args.seed, name)))
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail("fne_bench exited with code %d" % run.returncode)
    check_result(lines[-1], args.trace == "1")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

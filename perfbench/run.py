#!/usr/bin/env python3
"""End-to-end benchmark of the serve daemon and the SAT-attack pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-attack --seed 1 --seconds 30 --trace 0

Builds perfbench_workloads (the pipeline libraries under src/ plus the
workload runner in this directory) into .bench_build/perfbench on first use,
runs the workload in a child process and prints one JSON line as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json from one untraced
run at PITFALLS_THREADS = min(2, nproc) (1 for sat-lock, see TIMED_THREADS):
the pool and the main thread stay within the cores the host gives, with room
to spare for the rest of the machine. --trace 1 reports the per-layer
metrics: it runs the workload three times, each for a third of --seconds --
untraced at another thread count, traced, and untraced at the timed thread
count -- requires all three to produce the same output digest (the
determinism contract), and reports the traced-minus-untraced difference of
every end-to-end metric as obs.trace_overhead.<metric>.

Exits non-zero without printing a result when the sources or the build are
missing or a run fails; when an output check fails it prints the result with
"correct": false and exits 1.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# PITFALLS_THREADS of the timed runs (the pool counts the calling thread).
# Two leave cores free on a shared host. sat-lock takes one: at two, its peak
# RSS depended on which of glibc's per-thread heaps each solver's memory came
# from (one seed read 36 to 45 MiB across runs; within 1% at one thread).
TIMED_THREADS = {"sat-lock": 1}
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then bring the runner up to date (serialised by a
    lock so concurrent runs in one checkout share one build)."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", jobs],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench_workloads")


def run_workload(binary, args, seconds, threads, trace, workdir, deadline):
    env = dict(os.environ, PITFALLS_THREADS=str(threads))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", "1" if trace else "0",
               "--workdir", workdir]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the %s pass"
             % ("traced" if trace else "untraced"))
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=remaining, text=True)
    except subprocess.TimeoutExpired:
        fail("workload run exceeded the time limit")
    if done.returncode != 0:
        fail("perfbench_workloads exited with status %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench_workloads printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("pipeline sources (src/) not found next to perfbench/")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as handle:
        spec = json.load(handle)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)
    # The first run in a checkout pays for the build; the run itself keeps
    # its own time limit.
    deadline = max(deadline, time.monotonic() + DEADLINE_S)

    workdir = os.path.join(ROOT, target, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    cores = len(os.sched_getaffinity(0))
    threads = min(TIMED_THREADS.get(args.workload, 2), cores)
    try:
        if args.trace:
            # Any other pool size checks the determinism contract; one more
            # thread keeps the check quick where the host has the cores.
            other = threads + 1 if threads < cores or threads == 1 else 1
            seconds = args.seconds / 3.0
            passes = [
                run_workload(binary, args, seconds, other, False, workdir,
                             deadline),
                run_workload(binary, args, seconds, threads, True, workdir,
                             deadline),
                run_workload(binary, args, seconds, threads, False, workdir,
                             deadline),
            ]
        else:
            passes = [run_workload(binary, args, float(args.seconds), threads,
                                   False, workdir, deadline)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = all(p["correct"] for p in passes)
    if len({p["digest"] for p in passes}) != 1:
        print("perfbench: output differs between PITFALLS_THREADS=%s"
              % sorted({p["threads"] for p in passes}), file=sys.stderr)
        correct = False

    metrics = {}
    if args.trace:
        untraced, traced = passes[2]["metrics"], passes[1]["metrics"]
        overheads = {"obs.trace_overhead." + m["name"]:
                     traced[m["name"]] - untraced[m["name"]]
                     for m in spec["end_to_end"]}
        for entry in spec["per_layer"]:
            name = entry["name"]
            value = overheads.get(name, traced.get(name, 0.0))
            metrics[name] = {"value": value, "unit": entry["unit"]}
    else:
        measured = passes[0]["metrics"]
        for entry in spec["end_to_end"]:
            if entry["name"] not in measured:
                fail("workload did not report %s" % entry["name"])
            metrics[entry["name"]] = {"value": measured[entry["name"]],
                                      "unit": entry["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    if not correct:
        print("perfbench: output checks failed", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

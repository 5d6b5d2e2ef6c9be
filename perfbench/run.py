#!/usr/bin/env python3
"""Build the SpMV benchmark (spmv_perfbench) from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The first run configures and builds
perfbench/ (the library under src/ plus spmv_perfbench) into .bench_build/;
later runs only rebuild what changed.  Build output goes to stderr; the
benchmark's report goes to stdout, ending with one JSON line.  Every run's
report is also kept in .bench_build/runs/, and a traced run's spans in
.bench_build/traces/.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("suite-sweep", "rpc-solver")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "spmv.h")):
        fail("library sources not found under src/; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    # Serialise concurrent runs on one build tree.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", BUILD, "--parallel", "4"]]
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "spmv_perfbench")


def check_metrics(result, trace):
    """The result must hold exactly the manifest's metrics for this kind of
    run (end_to_end untraced, per_layer traced), each in its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    problems = [f"missing {n}" for n in want if n not in got]
    problems += [f"not in BENCHMARK.json: {n}" for n in got if n not in want]
    for name, m in got.items():
        if name in want and (m.get("unit") != want[name] or
                             not isinstance(m.get("value"), (int, float))):
            problems.append(f"{name} is not a number in {want[name]}")
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0:
        fail("--seed must not be negative")

    binary = build()
    tag = f"{a.workload}-seed{a.seed}"
    for sub in ("runs", "traces"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--trace-file", os.path.join(BUILD, "traces", tag + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    out = proc.stdout
    with open(os.path.join(BUILD, "runs", f"{tag}-trace{a.trace}.log"), "w") as f:
        f.write(out)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (json.JSONDecodeError, IndexError):
        ok = False
    if not ok:
        sys.stderr.write(out + "\n")
        fail(f"{a.workload} failed (exit code {proc.returncode})")
    problems = check_metrics(result, a.trace)
    if problems:
        sys.stderr.write(out + "\n")
        fail(f"{a.workload}: metrics do not match BENCHMARK.json: " +
             "; ".join(problems))
    # A run with wrong results prints "correct": false and exits non-zero.
    sys.stdout.write(out)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

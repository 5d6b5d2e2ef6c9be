#!/usr/bin/env python3
"""Compare perfbench runs of a parent and a change by the benchmark's rules.

    tools/bench_pairs.py PARENT_DIR CHANGE_DIR
    tools/bench_pairs.py --validate DIR

A DIR holds perfbench run logs named WORKLOAD-seedN-traceT.log, as
perfbench/run.py keeps them in .bench_build/runs/; given a checkout, its
.bench_build/runs/ is read.  An untraced (trace0) log on each side with
the same workload and seed forms one pair; alternate which side runs
first.  For every end-to-end metric in BENCHMARK.json, per workload, the
script prints each side's median and quartiles, the pairs the change won
(ties count for neither) and a verdict:

  gain        at least 10 pairs, the change won at least 9 in 10 of them,
              and its median beats the parent's by more than the parent's
              interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound, a fraction of the parent's median;
  unresolved  neither, and one side's interquartile range is wider than
              the bound (as a fraction of its median), unless every run
              of the change beats every run of the parent;
  flat        otherwise.

Traced (trace1) logs are checked like the others but not compared.
Every log must carry the same provenance host stamp, and both runs of a
pair the same length.

Exit status: 1 when a verdict is "worse", when the change fails a larger
share of the operations it attempted, or when a run reports
"correct": false; 2 when logs are unreadable, malformed, from different
hosts or do not pair; 0 otherwise.

--validate DIR checks every *.log below DIR for format and provenance
only, so it runs on any host: each log parses, its name agrees with its
provenance, its metrics are BENCHMARK.json's for its kind of run, and
the logs below each subdirectory of DIR share one host stamp.
"""
import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^(?P<workload>[a-z0-9-]+)-seed(?P<seed>\d+)"
                  r"-trace(?P<trace>[01])\.log$")
PROVENANCE_KEYS = {"workload", "seed", "seconds", "trace", "why", "host"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
MIN_PAIRS = 10
WIN_SHARE = 0.9


class LogError(Exception):
    pass


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_log(path, manifest):
    """One run: provenance, metric values and the closing result line."""
    match = NAME.match(os.path.basename(path))
    if not match:
        raise LogError(f"{path}: name is not WORKLOAD-seedN-traceT.log")
    try:
        with open(path) as f:
            lines = [line.rstrip("\n") for line in f if line.strip()]
    except OSError as e:
        raise LogError(f"{path}: {e}") from e
    if not lines or not lines[0].startswith("provenance "):
        raise LogError(f"{path}: first line is not a provenance stamp")
    try:
        prov = json.loads(lines[0][len("provenance "):])
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise LogError(f"{path}: {e}") from e
    if not isinstance(prov, dict) or set(prov) != PROVENANCE_KEYS:
        raise LogError(f"{path}: provenance keys are not "
                       f"{sorted(PROVENANCE_KEYS)}")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise LogError(f"{path}: last line is not a perfbench result")
    for key in ("workload", "seed", "trace"):
        if str(prov[key]) != match.group(key):
            raise LogError(f"{path}: name says {key} {match.group(key)}, "
                           f"provenance says {prov[key]}")
    workloads = {w["name"] for w in manifest["workloads"]}
    if prov["workload"] not in workloads:
        raise LogError(f"{path}: workload {prov['workload']} is not in "
                       "BENCHMARK.json")
    want = {m["name"]: m["unit"] for m in
            manifest["per_layer" if prov["trace"] else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        raise LogError(f"{path}: metrics differ from BENCHMARK.json's")
    for name, m in got.items():
        if (not isinstance(m, dict) or m.get("unit") != want[name] or
                not isinstance(m.get("value"), (int, float))):
            raise LogError(f"{path}: {name} is not a number in {want[name]}")
    return {
        "path": path,
        "workload": prov["workload"],
        "seed": prov["seed"],
        "trace": prov["trace"],
        "seconds": prov["seconds"],
        "host": json.dumps(prov["host"], sort_keys=True),
        "correct": result["correct"] is True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in got.items()},
    }


def log_paths(directory):
    runs = os.path.join(directory, ".bench_build", "runs")
    if os.path.isdir(runs):
        directory = runs
    if not os.path.isdir(directory):
        raise LogError(f"{directory}: not a directory")
    return sorted(os.path.join(directory, n) for n in os.listdir(directory)
                  if n.endswith(".log"))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, higher):
    """True when value a beats value b."""
    return a > b if higher else a < b


def verdict(parent, change, wins, higher, bound):
    """The pairs rule and the bound, for one metric; parent[i] and
    change[i] are one pair, of which the change won `wins`."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = (pm - cm if higher else cm - pm) / pm if pm else 0.0
    if worse_by > bound:
        return "worse"
    if (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent) and
            better(cm, pm, higher) and abs(cm - pm) > p3 - p1):
        return "gain"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not all(better(c, p, higher)
                                  for p in parent for c in change):
        return "unresolved"
    return "flat"


def one_host(runs):
    hosts = {r["host"] for r in runs}
    if len(hosts) > 1:
        raise LogError("logs come from different hosts:\n  " +
                       "\n  ".join(sorted(hosts)))
    return hosts.pop() if hosts else None


def fmt(v):
    return f"{v:.4g}"


def compare(parent_dir, change_dir, manifest):
    parent = [parse_log(p, manifest) for p in log_paths(parent_dir)]
    change = [parse_log(p, manifest) for p in log_paths(change_dir)]
    host = one_host(parent + change)
    if host is None:
        raise LogError("no logs found")
    print(f"host {host}")
    status = 0
    for run in parent + change:
        if not run["correct"]:
            print(f"WRONG RESULTS: {run['path']} reports \"correct\": false")
            status = 1

    def index(runs):
        return {(r["workload"], r["seed"]): r for r in runs
                if r["trace"] == 0}

    p_runs, c_runs = index(parent), index(change)
    keys = sorted(set(p_runs) & set(c_runs))
    unpaired = sorted(set(p_runs) ^ set(c_runs))
    if unpaired:
        print("unpaired (ignored): " +
              ", ".join(f"{w} seed {s}" for w, s in unpaired))
    if not keys:
        raise LogError("no workload and seed has an untraced run on both "
                       "sides")
    for w, s in keys:
        if p_runs[(w, s)]["seconds"] != c_runs[(w, s)]["seconds"]:
            raise LogError(f"{w} seed {s}: runs differ in length")

    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        ps = [p_runs[(workload, s)] for s in seeds]
        cs = [c_runs[(workload, s)] for s in seeds]
        print(f"\n{workload}: {len(seeds)} pairs, seeds "
              f"{', '.join(map(str, seeds))}, {ps[0]['seconds']} s runs")
        print(f"  {'metric':<12} {'unit':<5} {'parent median [q1, q3]':<34}"
              f" {'change median [q1, q3]':<34} {'ratio':>6} {'wins':>6}"
              "  verdict")
        for m in manifest["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"
            pv = [r["metrics"][name] for r in ps]
            cv = [r["metrics"][name] for r in cs]
            wins = sum(better(c, p, higher) for p, c in zip(pv, cv))
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            v = verdict(pv, cv, wins, higher, m["bound"])
            if v == "worse":
                status = 1
            ratio = cm / pm if pm else float("nan")
            print(f"  {name:<12} {m['unit']:<5} "
                  f"{fmt(pm) + ' [' + fmt(p1) + ', ' + fmt(p3) + ']':<34} "
                  f"{fmt(cm) + ' [' + fmt(c1) + ', ' + fmt(c3) + ']':<34} "
                  f"{ratio:>6.3f} {f'{wins}/{len(pv)}':>6}  {v}")
        p_att = sum(r["attempted"] for r in ps)
        c_att = sum(r["attempted"] for r in cs)
        p_fail = sum(r["failed"] for r in ps)
        c_fail = sum(r["failed"] for r in cs)
        more = c_att and p_att and c_fail / c_att > p_fail / p_att
        print(f"  failed: parent {p_fail}/{p_att}, change {c_fail}/{c_att}"
              + ("  MORE FAILURES" if more else ""))
        if more:
            status = 1
    return status


def validate(directory, manifest):
    if not os.path.isdir(directory):
        raise LogError(f"{directory}: not a directory")
    groups = {}
    for dirpath, _, names in os.walk(directory):
        for n in sorted(names):
            if not n.endswith(".log"):
                continue
            path = os.path.join(dirpath, n)
            rel = os.path.relpath(path, directory).split(os.sep)
            group = rel[0] if len(rel) > 1 else "."
            groups.setdefault(group, []).append(parse_log(path, manifest))
    if not groups:
        raise LogError(f"{directory}: no run logs")
    for group, runs in sorted(groups.items()):
        try:
            one_host(runs)
        except LogError as e:
            raise LogError(f"{os.path.join(directory, group)}: {e}") from e
        print(f"{os.path.join(directory, group)}: {len(runs)} logs, "
              "one host")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--validate", metavar="DIR",
                   help="check format and provenance of the logs below DIR")
    p.add_argument("dirs", nargs="*", metavar="DIR",
                   help="PARENT_DIR CHANGE_DIR")
    a = p.parse_args()
    if len(a.dirs) != (0 if a.validate is not None else 2):
        p.error("give PARENT_DIR CHANGE_DIR, or --validate DIR")
    manifest = load_manifest()
    try:
        if a.validate is not None:
            return validate(a.validate, manifest)
        return compare(a.dirs[0], a.dirs[1], manifest)
    except LogError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

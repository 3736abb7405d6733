#!/usr/bin/env python3
"""Records the benchmark's baseline: several seeds per workload, untraced,
plus one traced run per workload.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json

For every end-to-end metric it reports the median over seeds and the
spread (interquartile distance over median, statistics.quantiles n=4),
against the metric's bound in BENCHMARK.json.  The traced runs give the
per-layer table and the tracing overhead.  The output file is always
written whole, from this invocation's runs; the hand-written findings live
in FINDINGS.md.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import stats  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit_status"] = proc.returncode
    return result


def host_facts():
    cache = os.path.join(run.build_dir(), "CMakeCache.txt")
    facts = {"nproc": os.cpu_count(), "machine": platform.machine()}
    with open(cache) as f:
        text = f.read()
    for key in ("CMAKE_BUILD_TYPE", "CMAKE_CXX_COMPILER"):
        match = re.search(r"^%s:\w+=(.*)$" % key, text, re.M)
        facts[key.lower()] = match.group(1) if match else None
    version = subprocess.run([facts["cmake_cxx_compiler"], "--version"],
                             stdout=subprocess.PIPE, text=True).stdout
    facts["compiler"] = version.splitlines()[0]
    return facts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = run.load_spec()
    run.build()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds,
              "host": host_facts(), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in
                 result["metrics"].items()})), flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            row = {"median": stats.median(values), "values": values}
            if len(values) >= 2:
                row["spread"] = stats.spread(values)
                row["bound"] = bound
            entry["end_to_end"][name] = row
        traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
        entry["traced_correct"] = traced["correct"]
        entry["per_layer"] = {k: v["value"]
                              for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry

    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
    print(json.dumps({w: {m: (round(r["median"], 6), round(r.get("spread", 0), 4))
                          for m, r in e["end_to_end"].items()}
                      for w, e in record["workloads"].items()}, indent=1))


if __name__ == "__main__":
    main()

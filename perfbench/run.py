#!/usr/bin/env python3
"""The repository benchmark: builds the harness and runs one workload.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The first run configures and builds
perfbench/ (the LLA libraries from src/ plus the lla_perfbench harness) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.  Each workload
runs in its own harness process, so peak_rss_mb belongs to that workload.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics — the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  Exit status 0 on success, 1 when an
output check failed, 2 when the benchmark could not run.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import stats  # noqa: E402

WORKLOADS = ("converge", "rounds_100k", "churn")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("LLA sources (src/) not found next to perfbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "lla_perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_harness(binary, args):
    cache = os.path.join(build_dir(), "cache")
    os.makedirs(cache, exist_ok=True)
    cmd = [binary, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache-dir", cache]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("harness exited with status %d" % proc.returncode)
    return json.loads(lines[-1])


def report(raw, metrics, spec_metrics):
    """Human-readable lines: every metric by name with its unit."""
    units = {m["name"]: m["unit"] for m in spec_metrics}
    print("workload %s seed %d trace %d" %
          (raw["workload"], raw["seed"], int(raw["trace"])))
    for name, value in metrics.items():
        print("  %-34s %14.6g %s" % (name, value, units[name]))
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    print("  %-34s %14.6g (%d of %d operations)" %
          ("fail_frac", stats.fail_frac(attempted, failed), failed, attempted))
    n = len(raw["op_ms"])
    tail = stats.supported_percentile(n)
    print("  op_ms samples: %d (highest percentile with ten beyond: %s)" %
          (n, "none" if tail is None else "p%g" % tail))
    for key, value in raw["info"].items():
        if isinstance(value, list):
            for item in value:
                print("  %s: %s" % (key, item))
        else:
            print("  %s: %s" % (key, value))
    for error in raw["errors"]:
        print("  WRONG OUTPUT: " + error)


def selftest():
    import unittest

    suite = unittest.defaultTestLoader.discover(BENCH_DIR, pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    proc = subprocess.run([build(), "selftest"])
    return 0 if ok and proc.returncode == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")

    spec = load_spec()
    raw = run_harness(build(), args)
    if args.trace:
        spec_metrics = spec["per_layer"]
        metrics = {m["name"]: float(raw["layers"].get(m["name"], 0.0))
                   for m in spec_metrics}
    else:
        spec_metrics = spec["end_to_end"]
        computed = stats.end_to_end(raw)
        metrics = {m["name"]: computed[m["name"]] for m in spec_metrics}
    report(raw, metrics, spec_metrics)
    units = {m["name"]: m["unit"] for m in spec_metrics}
    print(json.dumps({
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

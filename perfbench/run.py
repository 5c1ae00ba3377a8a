#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload serve_dyhsl --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own tests

Run from the root of a checkout. The DyHSL library and the benchmark binary are
built from source into .bench_build/ (Release; later runs only re-check
the build). The binary's output is passed through and its last line, the
JSON result, is completed here:

  * --trace 0: setup_s becomes the median over SETUP_PROCESSES + 1 cold
    set-ups, each in a fresh process (the measured run's own included);
  * --trace 1: the per-layer metrics BENCHMARK.json declares but the
    workload does not exercise are added as 0.

A metric BENCHMARK.json does not declare, or declares with another unit,
fails the run.
"""

import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "dyhsl_perfbench")
# Extra set-up-only processes per measured run.
SETUP_PROCESSES = 4


def build(targets):
    """Configures and builds `targets`; compiler output goes to stderr."""
    here = os.path.dirname(os.path.abspath(__file__))
    steps = [
        ["cmake", "-S", here, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1)),
         "--target"] + targets,
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv[:-1] else None


def cold_setup_s(argv):
    """Set-up time (s) of one fresh process that stops before measuring."""
    workload, seed = flag(argv, "--workload"), flag(argv, "--seed")
    if workload is None or seed is None:
        sys.exit("perfbench: --workload and --seed are required")
    proc = subprocess.run([BINARY, "--workload", workload, "--seed", seed,
                           "--setup-only", "1"],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.exit("perfbench: set-up-only run failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def check_metrics(metrics, declared):
    """Checks `metrics` against `declared` ({name: unit}); returns an error."""
    for name, metric in metrics.items():
        if name not in declared:
            return "metric %s is not declared in BENCHMARK.json" % name
        if metric["unit"] != declared[name]:
            return "metric %s has unit %s, BENCHMARK.json says %s" % (
                name, metric["unit"], declared[name])
    return None


def main(argv):
    if argv == ["--test"]:
        build(["perfbench_test"])
        return subprocess.run(["ctest", "--test-dir", BUILD_DIR,
                               "--output-on-failure"]).returncode
    trace = flag(argv, "--trace") == "1"
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    build(["dyhsl_perfbench"])
    setups = [] if trace else [cold_setup_s(argv)
                               for _ in range(SETUP_PROCESSES)]
    proc = subprocess.run([BINARY] + argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    error = check_metrics(metrics, declared)
    if error:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: %s\n" % error)
        return 1
    if trace:
        for name, unit in declared.items():
            metrics.setdefault(name, {"value": 0, "unit": unit})
    else:
        missing = sorted(set(declared) - set(metrics))
        if missing:
            sys.stdout.write(proc.stdout)
            sys.stderr.write("perfbench: metrics missing: %s\n" % missing)
            return 1
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        lines.insert(-1, "  setup_s %.4f s: median of %d cold processes (%s)"
                     % (statistics.median(setups), len(setups),
                        ", ".join("%.4f" % s for s in setups)))
    lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build and run the vgrid benchmark.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which pulls in the repository's CMake tree) into
$CARGO_TARGET_DIR, default .bench_build, then runs one workload. The last
line of stdout is the run's JSON result; with --trace 1 the spans, the
obs::Registry snapshot and the TaskPool worker spans of the traced run are
written to <build dir>/trace-<workload>-<seed>.json. perfbench/README.md
documents the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figures", "fleet-journal", "grid-closed-loop")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir],
        ["cmake", "--build", build_dir, "--target", "vgrid_perfbench",
         "-j", "4"],
    ]
    for step in steps:
        # Build output goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "vgrid_perfbench")


def spec_metrics(trace):
    """[(name, unit)] of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("vgrid_perfbench exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last line of vgrid_perfbench's output is not JSON")
    spec = spec_metrics(args.trace)
    units = dict(spec)
    reported = result.get("metrics", {})
    wrong = sorted(name for name, metric in reported.items()
                   if units.get(name) != metric.get("unit"))
    missing = [(name, unit) for name, unit in spec if name not in reported]
    if wrong or (missing and not args.trace):
        sys.stderr.write(run.stdout)
        fail("metrics differ from BENCHMARK.json: unknown or wrong unit %s, "
             "missing %s" % (wrong, [name for name, _ in missing]))
    # A per-layer metric of a layer the workload does not run reads 0, n=0.
    result["metrics"] = {name: reported.get(name, {"value": 0, "unit": unit})
                         for name, unit in spec}
    for line in lines[:-1]:
        print(line)
    for name, unit in missing:
        print("  %-30s %16.6g %-8s n=0" % (name, 0, unit))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale paper|tiny]

Run from the root of a checkout.  The aalwines library and the benchmark
`perfbench` program are built in Release mode under $CARGO_TARGET_DIR
(default .bench_build)/perfbench; the program's last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}.  BENCHMARK.json is the one list
of metrics: a run must print only metrics it declares (end_to_end untraced,
per_layer traced), with their units; a per-layer metric the workload does not
exercise is reported as 0.  A traced run (--trace 1) also writes its spans as
Chrome trace-event JSON next to the build.  The exit code is non-zero, with no
result printed, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("oneshot_paper", "serve_mixed", "whatif_session")
RUN_TIMEOUT_S = 175


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    return {m["name"]: m["unit"] for m in benchmark["per_layer" if trace else "end_to_end"]}


def complete(line, declared, trace):
    """Check the program's metrics against `declared`; fill unexercised layers."""
    metrics = line["metrics"]
    for name, entry in metrics.items():
        if declared.get(name) != entry["unit"]:
            raise ValueError(f"metric {name} [{entry['unit']}] is not declared so")
    for name, unit in declared.items():
        if name not in metrics:
            if not trace:
                raise ValueError(f"end-to-end metric {name} missing")
            metrics[name] = {"value": 0, "unit": unit}
    return line


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(directory):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(directory, name)) for name in generated):
        configure = ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", directory, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(directory, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper")
    args = parser.parse_args()

    declared = declared_metrics(args.trace)
    directory = build_dir()
    try:
        binary = build(directory)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale]
    if args.trace:
        command += ["--trace-file",
                    os.path.join(directory, f"trace-{args.workload}-{args.seed}.json")]
    start = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    print(f"perfbench: {args.workload} ran {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: {args.workload} exited with {run.returncode}", file=sys.stderr)
        return 1
    try:
        line = complete(json.loads(lines[-1]), declared, args.trace)
    except (ValueError, KeyError, TypeError) as error:
        print(f"perfbench: {args.workload} result: {error}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1] + [json.dumps(line)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

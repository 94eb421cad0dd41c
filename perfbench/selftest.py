#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny scale.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through run.py with --scale tiny
(oneshot_paper at 100 service chains, serve_mixed and whatif_session on
small pools and sessions), untraced and traced, and checks that each run
completes in seconds, passes its oracles (failed = 0, success_rate = 1) and
emits exactly the metrics BENCHMARK.json names, each with its unit.  Exits
non-zero on the first violation.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "2", "--trace", str(trace), "--scale", "tiny"]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit code {done.returncode}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return line, time.monotonic() - start


def check(workload, trace, line, declared):
    where = f"{workload} trace={trace}"
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(line)}")
    if not line["correct"] or line["failed"] != 0 or line["attempted"] < 1:
        raise AssertionError(f"{where}: correct={line['correct']} failed={line['failed']} "
                             f"attempted={line['attempted']}")
    metrics = line["metrics"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise AssertionError(f"{where}: missing {missing}, undeclared {extra}")
    for name, unit in declared.items():
        entry = metrics[name]
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            raise AssertionError(f"{where}: {name} = {entry}, expected unit {unit}")
    if not trace and metrics["success_rate"]["value"] != 1:
        raise AssertionError(f"{where}: success_rate {metrics['success_rate']['value']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            line, seconds = run(workload, trace)
            check(workload, trace, line, declared)
            print(f"ok {workload} trace={trace} ({seconds:.1f} s, "
                  f"{line['attempted']} operations)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, subprocess.SubprocessError, ValueError) as error:
        print(f"selftest: FAIL {error}", file=sys.stderr)
        sys.exit(1)

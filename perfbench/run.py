#!/usr/bin/env python3
"""The repo benchmark: one command per workload run.

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds perfbench_runner (the library
plus perfbench/src) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, runs the workload, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list
(the traced run, which also writes its spans to <build dir>/traces/).

Exit codes: 0 when every correctness check passed, 1 when a check failed
or the build or run broke, 2 for bad arguments, an invalid BENCHMARK.json
or an environment that would change what is measured (the runner checks
the environment and refuses with 2).
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The first run in a fresh checkout compiles the library (about a minute
# on 4 cores); later runs only re-check the build. The workload itself
# is killed if it outlives RUN_TIMEOUT_S.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
# The workloads perfbench_runner knows; each one's fixed parameters are
# constants in its source file.
WORKLOADS = ("serve_zipf", "batch_farm_cold", "serve_churn")


def bad_metric_names(benchmark):
    """Metric names in a BENCHMARK.json object that use anything but
    [A-Za-z0-9_.-] (or are empty)."""
    bad = []
    for section in ("end_to_end", "per_layer"):
        for metric in benchmark.get(section, []):
            name = metric.get("name", "")
            if not isinstance(name, str) or not METRIC_NAME.fullmatch(name):
                bad.append(name)
    return bad


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, deadline):
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "perfbench_build.log"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench_runner",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    with open(log, "w") as out:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log}")
            if done.returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log}")
    return build_dir / "perfbench_runner"


def run(runner, args, deadline):
    """Streams the runner's output through and returns (exit code, the
    parsed RESULT object or None). Kills the runner at the deadline."""
    result = None
    with subprocess.Popen([str(runner)] + args, stdout=subprocess.PIPE,
                          text=True) as proc:
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                                   proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
                else:
                    sys.stdout.write(line)
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code < 0:
        fail(f"runner killed by signal {-code} (deadline {RUN_TIMEOUT_S} s)")
    return code, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    try:
        benchmark = json.loads(Path("BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}", 2)
    bad = bad_metric_names(benchmark)
    if bad:
        fail(f"metric names outside [A-Za-z0-9_.-]: {bad}", 2)
    if opts.workload not in WORKLOADS:
        fail(f"unknown workload {opts.workload!r}", 2)
    if opts.seconds <= 0:
        fail("--seconds must be positive", 2)

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    runner = build(build_dir, time.monotonic() + BUILD_TIMEOUT_S)
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        args += ["--trace-out",
                 str(traces / f"{opts.workload}-seed{opts.seed}.jsonl")]
    code, result = run(runner, args, time.monotonic() + RUN_TIMEOUT_S)
    if result is None:
        fail(f"runner exited {code} without a result", 2 if code == 2 else 1)

    section = "per_layer" if opts.trace else "end_to_end"
    # Everything the runner measured, by name; the JSON line below keeps
    # only BENCHMARK.json's list for this mode.
    for name, got in result["metrics"].items():
        print(f"  {name} = {got['value']!r} {got['unit']}")
    metrics = {}
    for spec in benchmark[section]:
        got = result["metrics"].get(spec["name"])
        if got is None:
            fail(f"runner did not report {spec['name']}")
        if got["unit"] != spec["unit"] or not math.isfinite(got["value"]):
            fail(f"{spec['name']}: got {got}, expected unit {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs one workload of the salign end-to-end benchmark.

    python3 perfbench/run.py --workload rose2k-p4 --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. Builds the benchmark binary (the repo's
`salign` library plus perfbench/*.cpp) under $CARGO_TARGET_DIR (default
.bench_build), writes the run's inputs from the seed in a separate untimed
process, runs the measured process, and prints one line per metric (value,
unit, sample count), one line of host context, and as the last line the
JSON result: {"correct", "attempted", "failed", "metrics"}. --trace 1 runs
the traced variant, which reports the per-layer metrics and writes a Chrome
trace next to the build. Exits non-zero when the build fails, an output
check fails, or the metric set differs from BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
BINARY = "salign_perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "perfbench")


def build():
    """Configures once, then builds the benchmark binary incrementally."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", BINARY, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, BINARY)


def benchmark_spec():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def cpu_steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = benchmark_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    root = build_dir()
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = os.path.join(root, "inputs", tag)
    # Relative to the checkout: the daemon's socket path must stay short.
    work = os.path.relpath(os.path.join(root, "work", tag))
    trace_out = os.path.join(root, "traces", f"{args.workload}-{args.seed}.trace.json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    # A run's work is fixed (its families and the 100-job loop), so every
    # run measures the same thing; --seconds only names the expected length.
    common = ["--workload", args.workload, "--seed", str(args.seed), "--inputs", inputs]
    try:
        subprocess.run([binary, "gen"] + common, check=True, timeout=60)
        calibration_s = float(subprocess.run([binary, "calibrate"], check=True, timeout=30,
                                             capture_output=True, text=True).stdout)
        host = {"nproc": os.cpu_count(), "loadavg_start": loadavg(),
                "calibration_s": calibration_s}
        steal0 = cpu_steal_ticks()
        t0 = time.monotonic()
        proc = subprocess.run(
            [binary, "run"] + common + ["--trace", str(args.trace), "--work", work,
                                        "--trace-out", trace_out],
            timeout=RUN_TIMEOUT_S, capture_output=True, text=True)
        host["run_wall_s"] = time.monotonic() - t0
        host["steal_ticks"] = cpu_steal_ticks() - steal0
        host["loadavg_end"] = loadavg()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"measured process failed with exit code {proc.returncode}")
        return 1
    raw = json.loads(lines[-1])

    # The emitted metric set must be exactly the one BENCHMARK.json lists.
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = raw["metrics"]
    if [m["name"] for m in wanted] != list(got) or any(
            got[m["name"]]["unit"] != m["unit"] for m in wanted):
        log("metric names or units differ from BENCHMARK.json")
        return 1

    for name, m in got.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}")
    for err in raw["errors"]:
        print(f"error: {err}")
    if args.trace:
        print(f"trace: {trace_out}")
    print("host " + json.dumps(host, sort_keys=True))
    with open(os.path.join(root, "runs.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "trace": args.trace, "host": host, "result": raw}) + "\n")
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in got.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if raw["correct"] and raw["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

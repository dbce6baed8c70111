#!/usr/bin/env python3
"""Self-tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

Builds the benchmark binary (as run.py does) and checks that
  * the span arithmetic subtracts the union of concurrent children, the
    percentile guard refuses tails with fewer than ten samples beyond them,
    and the workload generators keep their promises (`salign_perfbench
    selftest`);
  * the metric names and units the binary emits are exactly the ones
    BENCHMARK.json lists, in the same order;
  * README.md names every workload and every metric.
Exits non-zero on the first failure.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    binary = run.build()
    subprocess.run([binary, "selftest"], check=True)

    spec = run.benchmark_spec()
    listed = subprocess.run([binary, "metrics"], check=True, capture_output=True,
                            text=True).stdout.split("\n")
    emitted = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        emitted[kind].append((name, unit))
    for kind, got in emitted.items():
        want = [(m["name"], m["unit"]) for m in spec[kind]]
        if got != want:
            sys.exit(f"{kind} metrics differ from BENCHMARK.json:\n  binary {got}\n  json   {want}")

    with open(os.path.join(run.HERE, "README.md")) as f:
        readme = f.read()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    missing = [n for n in names if f"`{n}`" not in readme]
    if missing:
        sys.exit(f"README.md does not describe: {missing}")
    print("perfbench selftest ok")


if __name__ == "__main__":
    main()

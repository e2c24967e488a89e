#!/usr/bin/env python3
"""Runs one ledger workload and prints its result as one JSON line.

    python3 bench/ledger/run.py --workload scan --seed 3 --seconds 15 --trace 0

Builds bench/ledger into build-ledger/ at the repository root on first use
(the engine sources come from src/), runs `ledger` (or `ledger_trace` with
--trace 1) on the workload, and prints the binary's own lines followed by

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding exactly the end_to_end (or, traced, the per_layer) metrics that
BENCHMARK.json names. Exits non-zero, without a result line, when the build
or the run fails.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-ledger"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    binary = BUILD / ("ledger_trace" if args.trace else "ledger")
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds:g}",
               f"--data-dir={BUILD / 'data'}"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{binary.name} exited with {proc.returncode} and no result")
    for line in lines[:-1]:
        print(line)
    record = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail(f"{binary.name} did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} is in {got['unit']}, BENCHMARK.json says "
                 f"{m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = record["correct"] and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

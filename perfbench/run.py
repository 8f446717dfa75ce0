#!/usr/bin/env python3
"""Build and run the lease-system benchmark.

    python3 perfbench/run.py --workload scale_renew --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (the repository's libraries, tools/vlease_scale and the
vlbench program) into .bench_build/; later runs only re-check the build.
vlbench prints its report and, last, a JSON object with every metric it
measured. This script passes the report through, adds a host stamp, and
prints as its own last line the JSON narrowed to the metrics
BENCHMARK.json declares: the end_to_end ones with --trace 0, the
per_layer ones with --trace 1. A missing declared metric, a failed build
or a failed run exits non-zero without a result line.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("scale_renew", "chaos_writes", "paper_sweep", "rt_zipf")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build (a no-op when nothing changed)."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def commit():
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    if not build():
        return 1
    binary = os.path.join(BUILD, "vlbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", OUT, "--tools-dir", BUILD]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log("perfbench: vlbench exited with %d" % proc.returncode)
        return 1
    full = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print("note host nproc=%d commit=%s" % (os.cpu_count() or 0, commit()))

    metrics = {}
    for m in declared:
        got = full["metrics"].get(m["name"])
        if got is None:
            log("perfbench: %s did not report %s" % (args.workload, m["name"]))
            return 1
        if got["unit"] != m["unit"]:
            log("perfbench: %s unit %s, declared %s" % (m["name"], got["unit"], m["unit"]))
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {"correct": bool(full["correct"]), "attempted": int(full["attempted"]),
              "failed": int(full["failed"]), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

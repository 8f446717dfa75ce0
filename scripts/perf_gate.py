#!/usr/bin/env python3
"""Perf gate: perfbench's end-to-end workloads against BENCH_baseline.json.

    scripts/perf_gate.py                 # --check (the default)
    scripts/perf_gate.py --set-baseline  # re-record the baseline

Run from anywhere in a checkout. --check runs every workload that
BENCHMARK.json lists through `python3 perfbench/run.py` three times, at
seed 101 and --seconds 5, round-robin over the workloads, and takes each
metric's median. A workload that fails a check below at that median runs
four more times and is judged on the median of all seven: on a shared
4-vCPU host a set-up time of unchanged code reads up to a third high in
a median of three, and a real regression fails the larger sample too.
The gate exits 1 if:
  * an end_to_end metric is worse than its baseline by more than the bound
    BENCHMARK.json declares for it (the bounds live only there);
  * a run reports "correct": false;
  * the share of failed operations is larger than the baseline's;
  * rt_zipf's wall-clock `metric events_per_s` line falls below 0.40x of
    its baseline. A send stall idles the process, so it barely moves the
    CPU-time rate but collapses the wall rate; the floor is wide because
    a shared host swings wall-clock rates by a third;
  * peak_rss_mb of tools/vlease_scale's two 50k-client points (the gate,
    and 4 servers x 4 volumes with a migration), one run each, grows by
    more than BENCHMARK.json's peak_rss_mb bound. perfbench's own build
    (.bench_build/) compiles vlease_scale, so no other build is needed.

--set-baseline takes the medians of ten runs instead, so that the
baseline's own sampling error stays well inside the bounds (set-up times
spread by 10-20% between 5 s runs). It stamps them with the commit and
`nproc` and rewrites everything in BENCH_baseline.json but its "record"
key. That key is the 1M-client / 100M-event capacity run, which no gate
reads. Re-record it deliberately (minutes of wall time):

    build/tools/vlease_scale --clients 1000000 --events 100000000 --progress

and store its JSON under "record" with "git" and "nproc" added.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "BENCH_baseline.json")
SEED = 101
# rt_zipf is correct from about 1.25 s up ("too few reference reads" at 1 s).
SECONDS = 5
WALL_WORKLOAD, WALL_FLOOR = "rt_zipf", 0.40
MORE_RUNS = 4
SCALE_POINTS = {
    "gate": ["--clients", "50000", "--events", "5000000"],
    "federation": ["--clients", "50000", "--events", "5000000",
                   "--servers", "4", "--volumes", "4", "--migrate"],
}


def run(cmd):
    # stderr is kept back: chaos_writes' oracle prints its dumps there.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit("perf_gate: %s exited with %d" % (" ".join(cmd), proc.returncode))
    return proc.stdout.splitlines()


def perfbench(workload):
    """One run of a workload: its metrics, failed share and wall rate."""
    lines = run([sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"])
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("perf_gate: %s reported correct: false" % workload)
    sample = {name: m["value"] for name, m in result["metrics"].items()}
    sample["failed_share"] = result["failed"] / result["attempted"]
    for line in lines:
        if line.split()[:2] == ["metric", "events_per_s"]:
            sample["events_per_s"] = float(line.split()[2])
    return sample


def peak_rss_mb(args):
    return json.loads("\n".join(run([".bench_build/vlease_scale"] + args)))["peak_rss_mb"]


def ratio_ok(base, cur, better, bound):
    ratio = cur / base if base else (1.0 if cur == base else float("inf"))
    return ratio, (ratio >= 1 - bound if better == "higher" else ratio <= 1 + bound)


def checks(spec, base, w, cur):
    """(label, base, current, better, bound) for each gated number of a workload."""
    b = base["workloads"][w]
    out = [("%s %s" % (w, m["name"]), b[m["name"]], cur[m["name"]], m["better"], m["bound"])
           for m in spec["end_to_end"]]
    out.append(("%s failed_share" % w, b["failed_share"], cur["failed_share"], "lower", 0.0))
    if w == WALL_WORKLOAD:
        out.append(("%s events_per_s (wall)" % w, b["events_per_s"], cur["events_per_s"],
                    "higher", 1 - WALL_FLOOR))
    return out


def judge(name, base, cur, better, bound):
    ratio, ok = ratio_ok(base, cur, better, bound)
    print("  %-42s base=%-12.6g cur=%-12.6g %6.3fx  %s"
          % (name, base, cur, ratio, "ok" if ok else "FAIL"))
    return ok


def medians(got):
    return {k: statistics.median(s[k] for s in got) for k in got[0]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="the default")
    mode.add_argument("--set-baseline", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(BASELINE) as f:
        base = json.load(f)
    runs = 10 if args.set_baseline else 3
    # Round-robin over the workloads, so a slow stretch of a shared host
    # lands on one run of each workload rather than on all of one.
    samples = {w["name"]: [] for w in spec["workloads"]}
    for _ in range(runs):
        for w, got in samples.items():
            got.append(perfbench(w))
    if not args.set_baseline:
        for w, got in samples.items():
            failing = ["%s %.3fx" % (c[0], ratio) for c in checks(spec, base, w, medians(got))
                       for ratio, ok in [ratio_ok(*c[1:])] if not ok]
            if failing:
                print("perf_gate: %s after %d runs; running %s %d more times"
                      % (", ".join(failing), len(got), w, MORE_RUNS))
                got.extend(perfbench(w) for _ in range(MORE_RUNS))
    measured = {w: medians(got) for w, got in samples.items()}
    rss = {name: peak_rss_mb(point) for name, point in SCALE_POINTS.items()}

    if args.set_baseline:
        doc = {
            "git": run(["git", "rev-parse", "--short", "HEAD"])[0],
            "nproc": len(os.sched_getaffinity(0)),  # what `nproc` prints
            "method": "median of %d round-robin runs of perfbench/run.py --seed %d "
                      "--seconds %d --trace 0; vlease_scale peak_rss_mb from one run; "
                      "see scripts/perf_gate.py" % (runs, SEED, SECONDS),
            "workloads": measured,
            "scale_peak_rss_mb": rss,
            "record": base["record"],
        }
        with open(BASELINE, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print("perf_gate: wrote %s" % BASELINE)
        return 0

    print("perf_gate: medians of %d runs (%d where extended) against %s (git %s, nproc %d)"
          % (runs, runs + MORE_RUNS, os.path.basename(BASELINE), base["git"], base["nproc"]))
    ok = True
    for w, cur in measured.items():
        for c in checks(spec, base, w, cur):
            ok &= judge(*c)
    rss_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "peak_rss_mb")
    for name, cur in rss.items():
        ok &= judge("vlease_scale %s peak_rss_mb" % name,
                    base["scale_peak_rss_mb"][name], cur, "lower", rss_bound)
    print("perf_gate: %s" % ("ok" if ok else "REGRESSION"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Run a tracked micro-bench suite and record the numbers in a git-tracked
# BENCH_<suite>.json so perf changes are reviewable like any other diff.
#
# Suites (default: kernel):
#   kernel   -> BENCH_kernel.json    scheduler/event-loop benches
#   protocol -> BENCH_protocol.json  lease-protocol benches (fan-out,
#                                    cold read, trace replay, sweep grid)
#   scale    -> BENCH_scale.json     tools/vlease_scale streaming replay
#                                    (gate config by default; --record
#                                    runs the 1M-client / 100M-event
#                                    configuration and stores its full
#                                    JSON under the "record" key)
#   rt       -> BENCH_rt.json        tools/vlease_rt --bench-loopback:
#                                    framed messages per second of
#                                    process CPU time between two real
#                                    TcpTransports over localhost
#
# Each tracked file holds two snapshots:
#   "baseline" -- the recorded reference numbers a perf PR is judged
#                 against (rewritten only with --set-baseline);
#   "current"  -- the numbers of the working tree (rewritten every run).
#
# Every snapshot (and the scale suite's record) is stamped with "git",
# the commit measured ("-dirty" when the work tree has uncommitted
# edits), and "nproc", the cores the OS grants the run. google-benchmark's
# own num_cpus can read 1 inside a container on a multi-core host, so it
# is not recorded.
#
# Method: each benchmark runs --reps times and we keep the *best*
# items_per_second per benchmark. On a contended 1-vCPU box the best of
# N is the least-interference estimate and is far more stable than the
# mean; compare like with like (both snapshots are produced this way).
#
# --check PCT: regression gate. Runs the suite, does NOT rewrite the
# tracked file, and exits non-zero if any benchmark comes in more than
# PCT percent below the recorded baseline. A baseline entry the run did
# not measure is listed as "not measured" and does not fail the gate.
# Used as a cheap smoke in scripts/ci.sh (with a generous PCT --
# best-of-few on a shared box).
#
# Usage: scripts/bench.sh [--suite kernel|protocol|scale|rt] [--set-baseline]
#                         [--check PCT] [--label TEXT] [--min-time SEC]
#                         [--reps N] [--filter REGEX] [--record]
set -euo pipefail
cd "$(dirname "$0")/.."

SUITE=kernel
SECTION=current
CHECK_PCT=""
LABEL=""
MIN_TIME=0.4
REPS=3
FILTER=""
RECORD=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --suite) SUITE="$2"; shift 2 ;;
    --set-baseline) SECTION=baseline; shift ;;
    --check) CHECK_PCT="$2"; shift 2 ;;
    --label) LABEL="$2"; shift 2 ;;
    --min-time) MIN_TIME="$2"; shift 2 ;;
    --reps) REPS="$2"; shift 2 ;;
    --filter) FILTER="$2"; shift 2 ;;
    --record) RECORD=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

HOST_NPROC=$(nproc)
HOST_COMMIT=$(git rev-parse --short HEAD)
git diff --quiet HEAD -- || HOST_COMMIT="$HOST_COMMIT-dirty"
export HOST_NPROC HOST_COMMIT

if [[ "$SUITE" == "scale" ]]; then
  # The scale suite is not a google-benchmark micro bench: it times
  # tools/vlease_scale, a streaming large-population replay. The gate
  # configuration (50k clients / 5M events, a few seconds of wall time)
  # feeds the baseline/current/--check machinery below under the name
  # "ScaleReplay/gate"; --record additionally runs the full 1M-client /
  # 100M-event configuration and stores its raw JSON as a completion
  # record (not gated -- minutes of wall time, run deliberately).
  PATH_JSON=BENCH_scale.json
  cmake -B build -S . >/dev/null
  cmake --build build -j --target vlease_scale >/dev/null

  GATE_RAW=$(mktemp)
  RECORD_RAW=$(mktemp)
  trap 'rm -f "$GATE_RAW" "$RECORD_RAW"' EXIT
  # Two tracked points: the single-server gate, and a federated
  # servers x volumes grid point (4 servers x 4 volumes each) with one
  # online migration mid-run, so routing-table dispatch and the handoff
  # path are on the perf-gated line.
  for ((r = 0; r < REPS; ++r)); do
    build/tools/vlease_scale --clients 50000 --events 5000000
    build/tools/vlease_scale --clients 50000 --events 5000000 \
      --servers 4 --volumes 4 --migrate
  done >"$GATE_RAW"
  if [[ "$RECORD" == 1 ]]; then
    build/tools/vlease_scale --clients 1000000 --events 100000000 \
      --progress | tee "$RECORD_RAW"
  fi

  SECTION="$SECTION" LABEL="$LABEL" GATE_RAW="$GATE_RAW" \
    RECORD_RAW="$RECORD_RAW" RECORD="$RECORD" PATH_JSON="$PATH_JSON" \
    CHECK_PCT="$CHECK_PCT" python3 - <<'PY'
import json, os, sys

# Best-of-reps events_per_second, same estimator as the micro suites.
# The gate file holds REPS concatenated JSON objects.
runs, text, pos = [], open(os.environ["GATE_RAW"]).read(), 0
decoder = json.JSONDecoder()
while pos < len(text):
    if text[pos].isspace():
        pos += 1
        continue
    obj, pos = decoder.raw_decode(text, pos)
    runs.append(obj)
best = {}
rss = {}
for r in runs:
    name = ("ScaleReplay/federation" if r.get("servers", 1) > 1
            else "ScaleReplay/gate")
    best[name] = max(best.get(name, 0.0), r["events_per_second"])
    # Min-of-reps is the least-interference RSS estimate, mirroring the
    # best-of-reps throughput estimator above.
    if "peak_rss_mb" in r:
        rss[name] = min(rss.get(name, float("inf")), r["peak_rss_mb"])

path = os.environ["PATH_JSON"]
doc = {}
if os.path.exists(path):
    doc = json.load(open(path))

check_pct = os.environ["CHECK_PCT"]
if check_pct:
    tol = float(check_pct) / 100.0
    base = doc.get("baseline", {}).get("items_per_second", {})
    if not base:
        sys.exit(f"{path}: no baseline recorded; run --set-baseline first")
    failed = []
    for name in sorted(base):
        b, c = base[name], best.get(name)
        if c is None:
            print(f"  {name:40s} base={b:>12.0f} {'not measured':>17s}")
            continue
        ratio = c / b
        flag = "FAIL" if ratio < 1.0 - tol else "ok"
        print(f"  {name:40s} base={b:>12.0f} cur={c:>12.0f} "
              f"{ratio:5.2f}x  {flag}")
        if ratio < 1.0 - tol:
            failed.append(name)
    # Memory gate, opposite direction: peak RSS must not grow more than
    # PCT above the recorded baseline (lower is better).
    base_rss = doc.get("baseline", {}).get("peak_rss_mb", {})
    for name in sorted(base_rss):
        b, c = base_rss[name], rss.get(name)
        if c is None:
            print(f"  {name + ' rss_mb':40s} base={b:>12.1f} "
                  f"{'not measured':>17s}")
            continue
        ratio = c / b
        flag = "FAIL" if ratio > 1.0 + tol else "ok"
        print(f"  {name + ' rss_mb':40s} base={b:>12.1f} cur={c:>12.1f} "
              f"{ratio:5.2f}x  {flag}")
        if ratio > 1.0 + tol:
            failed.append(name + "/rss")
    if failed:
        sys.exit(f"regression > {check_pct}% vs {path} baseline: "
                 + ", ".join(failed))
    print(f"check ok: within {check_pct}% of {path} baseline")
    sys.exit(0)

git_rev = os.environ["HOST_COMMIT"]
nproc = int(os.environ["HOST_NPROC"])
doc.setdefault("bench", "tools/vlease_scale (streaming replay)")
doc.setdefault(
    "method",
    "best events_per_second over N gate runs; see scripts/bench.sh")
doc[os.environ["SECTION"]] = {
    "label": os.environ["LABEL"] or git_rev,
    "git": git_rev,
    "nproc": nproc,
    "gate_config": "--clients 50000 --events 5000000",
    "items_per_second": {k: round(v) for k, v in sorted(best.items())},
    "peak_rss_mb": {k: round(v, 1) for k, v in sorted(rss.items())},
}
if os.environ["RECORD"] == "1":
    doc["record"] = json.load(open(os.environ["RECORD_RAW"]))
    doc["record"]["git"] = git_rev
    doc["record"]["nproc"] = nproc

with open(path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {path} [{os.environ['SECTION']}]")
PY
  exit 0
fi

if [[ "$SUITE" == "rt" ]]; then
  # Real-socket throughput: tools/vlease_rt --bench-loopback ping-pongs
  # framed protocol messages between two TcpTransports over localhost
  # and prints one JSON object per run: one event-loop thread drives
  # both ends. --check gates "RtLoopback/cpu", best-of-reps messages per
  # second of process CPU time, at the given tolerance: a shared host's
  # steal and time slicing stay out of it, where they swing the
  # wall-clock rate. The wall rate (wall_messages_per_second) is gated
  # too, at a fixed 0.40x of its baseline: a stall -- frames that wait
  # out the loop's wait timeout or an EPOLLOUT wake -- idles the process,
  # so it barely moves the CPU rate while the wall rate collapses.
  PATH_JSON=BENCH_rt.json
  cmake -B build -S . >/dev/null
  cmake --build build -j --target vlrt >/dev/null

  GATE_RAW=$(mktemp)
  trap 'rm -f "$GATE_RAW"' EXIT
  for ((r = 0; r < REPS; ++r)); do
    build/tools/vlease_rt --bench-loopback
  done >"$GATE_RAW"

  SECTION="$SECTION" LABEL="$LABEL" GATE_RAW="$GATE_RAW" \
    PATH_JSON="$PATH_JSON" CHECK_PCT="$CHECK_PCT" python3 - <<'PY'
import json, os, sys

WALL_FLOOR = 0.40  # fixed floor for the wall rate, whatever --check says

runs = [json.loads(line)
        for line in open(os.environ["GATE_RAW"]) if line.strip()]
best = {"RtLoopback/cpu": max(r["messages_per_cpu_second"] for r in runs)}
wall = max(r["messages_per_second"] for r in runs)

path = os.environ["PATH_JSON"]
doc = {}
if os.path.exists(path):
    doc = json.load(open(path))

check_pct = os.environ["CHECK_PCT"]
if check_pct:
    tol = float(check_pct) / 100.0
    base = doc.get("baseline", {}).get("items_per_second", {})
    if not base:
        sys.exit(f"{path}: no baseline recorded; run --set-baseline first")
    failed = []
    for name in sorted(base):
        b, c = base[name], best.get(name)
        if c is None:
            print(f"  {name:40s} base={b:>12.0f} {'not measured':>17s}")
            continue
        ratio = c / b
        flag = "FAIL" if ratio < 1.0 - tol else "ok"
        print(f"  {name:40s} base={b:>12.0f} cur={c:>12.0f} "
              f"{ratio:5.2f}x  {flag}")
        if ratio < 1.0 - tol:
            failed.append(name)
    wall_base = doc.get("baseline", {}).get("wall_messages_per_second")
    if not wall_base:
        sys.exit(f"{path}: no wall_messages_per_second baseline recorded; "
                 "run --set-baseline first")
    ratio = wall / wall_base
    flag = "FAIL" if ratio < WALL_FLOOR else "ok"
    print(f"  {'RtLoopback/wall':40s} base={wall_base:>12.0f} "
          f"cur={wall:>12.0f} {ratio:5.2f}x  {flag} (floor {WALL_FLOOR:.2f}x)")
    if ratio < WALL_FLOOR:
        failed.append("RtLoopback/wall")
    if failed:
        sys.exit(f"regression vs {path} baseline ({check_pct}% on the CPU "
                 f"rate, {WALL_FLOOR:.2f}x floor on the wall rate): "
                 + ", ".join(failed))
    print(f"check ok: CPU rate within {check_pct}%, wall rate above "
          f"{WALL_FLOOR:.2f}x of {path} baseline")
    sys.exit(0)

git_rev = os.environ["HOST_COMMIT"]
nproc = int(os.environ["HOST_NPROC"])
doc["bench"] = "tools/vlease_rt --bench-loopback (real sockets)"
doc["method"] = ("best messages_per_cpu_second over N runs (gated); "
                 "best messages_per_second alongside; see scripts/bench.sh")
doc[os.environ["SECTION"]] = {
    "label": os.environ["LABEL"] or git_rev,
    "git": git_rev,
    "nproc": nproc,
    "items_per_second": {k: round(v) for k, v in sorted(best.items())},
    "wall_messages_per_second": round(wall),
}

with open(path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {path} [{os.environ['SECTION']}]")
PY
  exit 0
fi

case "$SUITE" in
  kernel)
    PATH_JSON=BENCH_kernel.json
    SUITE_FILTER='BM_Scheduler'
    ;;
  protocol)
    PATH_JSON=BENCH_protocol.json
    SUITE_FILTER='BM_VolumeWriteFanout|BM_VolumeLeaseColdRead|BM_TraceReplay|BM_SweepGrid'
    ;;
  *) echo "unknown suite: $SUITE (kernel|protocol|scale|rt)" >&2; exit 2 ;;
esac
# An explicit --filter narrows within the suite (intersection would need
# real regex algebra; in practice callers pass a subset of suite names).
FILTER="${FILTER:-$SUITE_FILTER}"

cmake -B build -S . >/dev/null
cmake --build build -j --target micro_kernel >/dev/null

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT
# NOTE: --benchmark_min_time takes a plain double here (no "s" suffix).
build/bench/micro_kernel \
  --benchmark_format=json \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_repetitions="$REPS" \
  --benchmark_filter="$FILTER" \
  >"$RAW"

SECTION="$SECTION" LABEL="$LABEL" RAW="$RAW" PATH_JSON="$PATH_JSON" \
  CHECK_PCT="$CHECK_PCT" python3 - <<'PY'
import json, os, sys

raw = json.load(open(os.environ["RAW"]))
best = {}
for b in raw["benchmarks"]:
    if b.get("run_type") != "iteration":
        continue
    name = b["run_name"]
    ips = b.get("items_per_second")
    if ips is None:
        continue
    best[name] = max(best.get(name, 0.0), ips)

git_rev = os.environ["HOST_COMMIT"]
nproc = int(os.environ["HOST_NPROC"])
path = os.environ["PATH_JSON"]
doc = {}
if os.path.exists(path):
    doc = json.load(open(path))

check_pct = os.environ["CHECK_PCT"]
if check_pct:
    # Gate mode: compare this run against the recorded baseline without
    # touching the tracked file.
    tol = float(check_pct) / 100.0
    base = doc.get("baseline", {}).get("items_per_second", {})
    if not base:
        sys.exit(f"{path}: no baseline recorded; run --set-baseline first")
    failed = []
    for name in sorted(base):
        b, c = base[name], best.get(name)
        if c is None:
            print(f"  {name:40s} base={b:>12.0f} {'not measured':>17s}")
            continue
        ratio = c / b
        flag = "FAIL" if ratio < 1.0 - tol else "ok"
        print(f"  {name:40s} base={b:>12.0f} cur={c:>12.0f} "
              f"{ratio:5.2f}x  {flag}")
        if ratio < 1.0 - tol:
            failed.append(name)
    if failed:
        sys.exit(f"regression > {check_pct}% vs {path} baseline: "
                 + ", ".join(failed))
    print(f"check ok: within {check_pct}% of {path} baseline")
    sys.exit(0)

snapshot = {
    "label": os.environ["LABEL"] or git_rev,
    "date": raw["context"]["date"],
    "git": git_rev,
    "nproc": nproc,
    "mhz_per_cpu": raw["context"]["mhz_per_cpu"],
    "load_avg": raw["context"]["load_avg"],
    "items_per_second": {k: round(v) for k, v in sorted(best.items())},
}

doc.setdefault("bench", "bench/micro_kernel (google-benchmark)")
doc.setdefault(
    "method",
    "best items_per_second over N repetitions; see scripts/bench.sh")
doc.pop("host", None)  # num_cpus from google-benchmark; see nproc
section = os.environ["SECTION"]
doc[section] = snapshot

with open(path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")

base = doc.get("baseline", {}).get("items_per_second", {})
cur = doc.get("current", {}).get("items_per_second", {})
print(f"wrote {path} [{section}]")
for name in sorted(set(base) | set(cur)):
    b, c = base.get(name), cur.get(name)
    ratio = f"  {c / b:5.2f}x" if b and c else ""
    print(f"  {name:40s} base={b or '-':>12} cur={c or '-':>12}{ratio}")
PY

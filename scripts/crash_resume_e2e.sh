#!/usr/bin/env bash
# Crash/resume equivalence check (wired into ctest as
# `crash_resume_e2e` and run by both scripts/ci.sh stages).
#
# Proves the durable-journal guarantee end to end on a real bench
# binary (docs/ROBUSTNESS.md):
#
#   1. reference : uninterrupted sweep with --stable-json
#   2. crash     : same sweep with --journal and an injected
#                  `abort` fault — the process SIGKILLs itself
#                  mid-sweep (exit 137), leaving the journal with
#                  only the cells that finished first
#   3. resume    : same command without the fault — completed
#                  cells are served from the journal, the rest
#                  re-run, and the --json export must be
#                  BYTE-IDENTICAL to the reference run's
#   4. watchdog  : an injected `hang` is reaped by --cell-timeout
#                  while every other cell completes (exit 1, the
#                  timeout appears in the failed-cell table)
#   5. retry     : an injected transient fault succeeds on the
#                  second attempt under --cell-retries (exit 0,
#                  sweep.retries counted)
#   6. drain     : SIGINT while cell 2 hangs drains the sweep
#                  (exit 130): 2 cells completed, the in-flight
#                  and the never-claimed cell exported as
#                  "cancelled: signal" (the in-flight one with
#                  1 attempt, the never-claimed one with 0), a
#                  final heartbeat that counts only the 2 settled
#                  cells; resuming
#                  without the fault reproduces the reference
#                  export byte for byte
#
# Usage: scripts/crash_resume_e2e.sh [--fig12-bin=PATH]
#            [--inspect-bin=PATH]

set -eu

cd "$(dirname "$0")/.." || exit 1

fig12_bin="build/bench/fig12_mpki"
inspect_bin="build/tools/inspect"
for arg in "$@"; do
    case "$arg" in
        --fig12-bin=*) fig12_bin="${arg#--fig12-bin=}" ;;
        --inspect-bin=*) inspect_bin="${arg#--inspect-bin=}" ;;
        *)
            echo "crash_resume_e2e: unknown argument '$arg'" >&2
            echo "usage: $0 [--fig12-bin=PATH]" \
                 "[--inspect-bin=PATH]" >&2
            exit 2
            ;;
    esac
done

for bin in "$fig12_bin" "$inspect_bin"; do
    [ -x "$bin" ] || {
        echo "crash_resume_e2e: binary '$bin' not found; build" \
             "first (cmake --build build) or pass --fig12-bin= /" \
             "--inspect-bin=" >&2
        exit 2
    }
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# A tiny fully deterministic 4-cell grid. fig12 prepends LRU, so
# the cell order is fixed: (429.mcf,LRU) (429.mcf,RLR)
# (470.lbm,LRU) (470.lbm,RLR). --threads 1 in the crash run makes
# the journal contents deterministic: cells 0 and 1 complete, the
# abort fault kills the process the instant cell 2 is reached.
common="--workloads 429.mcf,470.lbm --policies RLR \
        --warmup 20000 --instructions 30000 --seed 42 \
        --stable-json"

echo "crash_resume_e2e: [1/6] reference run" >&2
"$fig12_bin" $common --threads 2 --json "$tmp/ref.json" \
    >/dev/null

echo "crash_resume_e2e: [2/6] crash run (SIGKILL at cell 2)" >&2
rc=0
"$fig12_bin" $common --threads 1 --journal "$tmp/journal" \
    --faults abort@2 --json "$tmp/crash.json" \
    >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 137 ]; then
    echo "crash_resume_e2e: expected the crash run to die with" \
         "SIGKILL (exit 137), got $rc" >&2
    exit 1
fi
if [ -e "$tmp/crash.json" ]; then
    echo "crash_resume_e2e: the killed run must not have written" \
         "its --json export" >&2
    exit 1
fi
records=$(ls "$tmp/journal/sweep-0/" | grep -c '^cell-') || true
if [ "$records" -ne 2 ]; then
    echo "crash_resume_e2e: expected 2 journaled cells after the" \
         "crash, found $records" >&2
    ls -l "$tmp/journal/sweep-0/" >&2
    exit 1
fi

echo "crash_resume_e2e: [3/6] resume run" >&2
"$fig12_bin" $common --threads 2 --journal "$tmp/journal" \
    --json "$tmp/resume.json" >"$tmp/resume.out"
grep -q "sweep.resumed_cells 2" "$tmp/resume.out" || {
    echo "crash_resume_e2e: resume run did not report 2 resumed" \
         "cells" >&2
    cat "$tmp/resume.out" >&2
    exit 1
}
if ! cmp -s "$tmp/ref.json" "$tmp/resume.json"; then
    echo "crash_resume_e2e: resumed export differs from the" \
         "uninterrupted run's:" >&2
    diff -u "$tmp/ref.json" "$tmp/resume.json" >&2 || true
    exit 1
fi
# The journal now covers the whole sweep and summarizes cleanly.
"$inspect_bin" --journal "$tmp/journal/sweep-0" \
    >"$tmp/summary.out"
grep -q "4 records: 4 ok, 0 failed, 0 unreadable" \
    "$tmp/summary.out" || {
    echo "crash_resume_e2e: unexpected journal summary:" >&2
    cat "$tmp/summary.out" >&2
    exit 1
}

echo "crash_resume_e2e: [4/6] watchdog reaps a hung cell" >&2
rc=0
"$fig12_bin" $common --threads 2 --faults hang@0 \
    --cell-timeout 2 >"$tmp/hang.out" 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "crash_resume_e2e: expected exit 1 from the timed-out" \
         "sweep, got $rc" >&2
    cat "$tmp/hang.out" >&2
    exit 1
fi
grep -q "timeout: attempt exceeded --cell-timeout" \
    "$tmp/hang.out" || {
    echo "crash_resume_e2e: timeout error missing from the" \
         "output" >&2
    cat "$tmp/hang.out" >&2
    exit 1
}
grep -q "sweep.timeouts 1" "$tmp/hang.out" || {
    echo "crash_resume_e2e: sweep.timeouts counter missing" >&2
    cat "$tmp/hang.out" >&2
    exit 1
}

echo "crash_resume_e2e: [5/6] transient fault retried" >&2
"$fig12_bin" $common --threads 2 --faults transient:1@0 \
    --cell-retries 2 >"$tmp/retry.out"
grep -q "sweep.retries 1" "$tmp/retry.out" || {
    echo "crash_resume_e2e: sweep.retries counter missing" >&2
    cat "$tmp/retry.out" >&2
    exit 1
}

echo "crash_resume_e2e: [6/6] SIGINT drains a hung sweep" >&2
drain="$tmp/drain"
"$fig12_bin" $common --threads 1 --journal "$drain" \
    --faults hang@2 --heartbeat "$tmp/drain_hb.json" \
    --json "$tmp/drain.json" >"$tmp/drain.out" 2>&1 &
drain_pid=$!
# Wait until cells 0 and 1 are journaled and cell 2 (hung) has
# written its in-flight marker.
ready=""
for _ in $(seq 1 600); do
    records=$(ls "$drain/sweep-0/" 2>/dev/null |
              grep -c '^cell-') || true
    markers=$(ls "$drain/sweep-0/" 2>/dev/null |
              grep -c '^inflight-') || true
    if [ "$records" -eq 2 ] && [ "$markers" -ge 1 ]; then
        ready=yes
        break
    fi
    sleep 0.05
done
if [ -z "$ready" ]; then
    echo "crash_resume_e2e: the drain run never reached the hung" \
         "cell 2" >&2
    kill -KILL "$drain_pid" 2>/dev/null || true
    wait "$drain_pid" 2>/dev/null || true
    cat "$tmp/drain.out" >&2
    exit 1
fi
kill -INT "$drain_pid"
rc=0
wait "$drain_pid" || rc=$?
if [ "$rc" -ne 130 ]; then
    echo "crash_resume_e2e: expected exit 130 from the drained" \
         "sweep, got $rc" >&2
    cat "$tmp/drain.out" >&2
    exit 1
fi
for want in "sweep.completed_cells 2" "sweep.cancelled_cells 2"; do
    grep -q "$want" "$tmp/drain.out" || {
        echo "crash_resume_e2e: drain run did not report" \
             "'$want'" >&2
        cat "$tmp/drain.out" >&2
        exit 1
    }
done
cancelled=$(grep -c '"error": "cancelled: signal"' \
            "$tmp/drain.json") || true
if [ "$cancelled" -ne 2 ]; then
    echo "crash_resume_e2e: expected 2 cancelled rows in the" \
         "drained export, found $cancelled" >&2
    cat "$tmp/drain.json" >&2
    exit 1
fi
# Attempts tell the two cancelled rows apart: cell 2
# (470.lbm, LRU) hung in its first attempt, cell 3 (470.lbm, RLR)
# was never claimed.
for want in '"policy": "LRU", .*"attempts": 1, .*"cancelled: signal"' \
            '"policy": "RLR", .*"attempts": 0, .*"cancelled: signal"'; do
    grep -q "\"workload\": \"470.lbm\", $want" "$tmp/drain.json" || {
        echo "crash_resume_e2e: drained export lacks a 470.lbm row" \
             "matching '$want':" >&2
        cat "$tmp/drain.json" >&2
        exit 1
    }
done
# The final heartbeat counts settled cells only: the cancelled
# ones are neither done nor failed.
for want in '"done": true' '"cells_done": 2,' '"cells_failed": 0,'; do
    grep -q "$want" "$tmp/drain_hb.json" || {
        echo "crash_resume_e2e: final drain heartbeat lacks" \
             "$want:" >&2
        cat "$tmp/drain_hb.json" >&2
        exit 1
    }
done
"$fig12_bin" $common --threads 2 --journal "$drain" \
    --json "$tmp/drain_resume.json" >"$tmp/drain_resume.out"
grep -q "sweep.resumed_cells 2" "$tmp/drain_resume.out" || {
    echo "crash_resume_e2e: resume after the drain did not" \
         "report 2 resumed cells" >&2
    cat "$tmp/drain_resume.out" >&2
    exit 1
}
if ! cmp -s "$tmp/ref.json" "$tmp/drain_resume.json"; then
    echo "crash_resume_e2e: export resumed after the drain" \
         "differs from the uninterrupted run's:" >&2
    diff -u "$tmp/ref.json" "$tmp/drain_resume.json" >&2 || true
    exit 1
fi

echo "crash_resume_e2e: OK (kill -9 at cell 2, resumed export" \
     "byte-identical; hung cell reaped; transient retried;" \
     "SIGINT drain resumed byte-identical)"

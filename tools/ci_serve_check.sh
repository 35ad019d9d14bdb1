#!/usr/bin/env bash
# CI gate for the online prediction daemon (DESIGN.md §17): generate a small
# faulted campaign store, compute the offline engine reference with
# tcppred_loadgen --offline, then
#
#   1. replay the store against a live tcppred_serve daemon and require the
#      PREDICT stream to be byte-identical to the offline reference, and
#   2. replay the first half of the traces, stop the daemon with SIGINT (it
#      writes its snapshot and exits 0), restart it with --resume, replay
#      the remaining traces, and require the two live outputs concatenated
#      to be byte-identical to the same reference.
#
# This is the end-to-end proof that the daemon's observe/predict pipeline
# and its snapshot/restore machinery preserve the engine-equivalence
# contract through a real process death.
#
# Usage: tools/ci_serve_check.sh path/to/tcppred_campaign \
#            path/to/tcppred_serve path/to/tcppred_loadgen
set -eu

CAMPAIGN=${1:?usage: ci_serve_check.sh campaign serve loadgen}
SERVE=${2:?usage: ci_serve_check.sh campaign serve loadgen}
LOADGEN=${3:?usage: ci_serve_check.sh campaign serve loadgen}
WORK=$(mktemp -d)
SERVE_PID=
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

# FB, plain HB and every LSO-wrapped kind: the daemon clones a path's specs
# into one LSO share, so this gates the shared-filter path end to end.
SPECS="fb:pftk,10-MA,0.8-HW-LSO,NWS,hybrid:0.8-HW-LSO,5-AR-LSO"
SOCK="$WORK/serve.sock"
SNAP="$WORK/serve.snapshot"

start_daemon() {  # extra flags...
    "$SERVE" --socket "$SOCK" --specs "$SPECS" --snapshot "$SNAP" "$@" \
        >"$WORK/ready.out" 2>>"$WORK/daemon.err" &
    SERVE_PID=$!
    for _ in $(seq 100); do
        [ -S "$SOCK" ] && return 0
        kill -0 "$SERVE_PID" 2>/dev/null || break
        sleep 0.05
    done
    echo "FAIL: daemon did not come up"
    cat "$WORK/daemon.err"
    exit 1
}

stop_daemon() {
    kill -INT "$SERVE_PID"
    RC=0
    wait "$SERVE_PID" || RC=$?
    SERVE_PID=
    [ "$RC" -eq 0 ] || { echo "FAIL: daemon exited $RC on SIGINT (want 0)"; exit 1; }
}

echo "== tiny faulted campaign -> record store"
"$CAMPAIGN" --paths 3 --traces 2 --epochs 24 --transfer-s 1.5 --seed 17 \
    --faults "pathload=0.2,ping-timeout=0.1,seed=5" \
    --out "$WORK/tiny.store" --format store --jobs 2 2>/dev/null

echo "== offline engine reference"
"$LOADGEN" --from-store "$WORK/tiny.store" --specs "$SPECS" \
    --offline "$WORK/ref.txt" 2>/dev/null
[ -s "$WORK/ref.txt" ] || { echo "FAIL: empty offline reference"; exit 1; }

echo "== full live replay vs offline reference"
start_daemon
"$LOADGEN" --from-store "$WORK/tiny.store" --specs "$SPECS" --socket "$SOCK" \
    --out "$WORK/live.txt" 2>/dev/null
stop_daemon
cmp "$WORK/ref.txt" "$WORK/live.txt" || {
    echo "FAIL: live PREDICT stream differs from the offline engine"
    exit 1
}

echo "== split replay across SIGINT-snapshot-restart"
rm -f "$SNAP"
start_daemon
"$LOADGEN" --from-store "$WORK/tiny.store" --specs "$SPECS" --socket "$SOCK" \
    --out "$WORK/live_a.txt" --count 3 2>/dev/null
stop_daemon
[ -f "$SNAP" ] || { echo "FAIL: SIGINT left no snapshot"; exit 1; }
start_daemon --resume
grep -q "resumed" "$WORK/daemon.err" || {
    echo "FAIL: restarted daemon did not report a resume"
    exit 1
}
"$LOADGEN" --from-store "$WORK/tiny.store" --specs "$SPECS" --socket "$SOCK" \
    --out "$WORK/live_b.txt" --start 3 2>/dev/null
stop_daemon
cat "$WORK/live_a.txt" "$WORK/live_b.txt" >"$WORK/live_split.txt"
cmp "$WORK/ref.txt" "$WORK/live_split.txt" || {
    echo "FAIL: split replay across a restart differs from the offline engine"
    exit 1
}

echo "ci_serve_check: live daemon is byte-identical to the offline engine," \
     "including across a SIGINT-snapshot-restart"

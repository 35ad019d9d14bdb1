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
#      to be byte-identical to the same reference, and
#   3. point a daemon's --snapshot into a missing directory: on one
#      loopback TCP connection (bash's /dev/tcp) SNAPSHOT must answer
#      "ERR snapshot failed: ..." and a STATS after it must still answer,
#      and SIGINT must then exit 2 naming the snapshot file.
#
# This is the end-to-end proof that the daemon's observe/predict pipeline
# and its snapshot/restore machinery preserve the engine-equivalence
# contract through a real process death, and that a failed snapshot is an
# answer, not a hung connection.
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

echo "== a failed snapshot answers ERR and the connection keeps serving"
BAD_SNAP="$WORK/no-such-dir/x.snap"
"$SERVE" --port 0 --specs "$SPECS" --snapshot "$BAD_SNAP" \
    >"$WORK/port.out" 2>"$WORK/bad.err" &
SERVE_PID=$!
PORT=
for _ in $(seq 100); do
    PORT=$(sed -n 's/^READY //p' "$WORK/port.out")
    [ -n "$PORT" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.05
done
[ -n "$PORT" ] || { echo "FAIL: daemon did not come up"; cat "$WORK/bad.err"; exit 1; }
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'OBSERVE p 0 0x1.8p+20 0.01 0.005 0.08 0x1.2p+20 0\nSNAPSHOT\nSTATS\n' >&3
R_OBSERVE= R_SNAPSHOT= R_STATS=
read -r -t 10 R_OBSERVE <&3 || true
read -r -t 10 R_SNAPSHOT <&3 || true
read -r -t 10 R_STATS <&3 || true
exec 3<&-
[ "$R_OBSERVE" = "OK" ] || { echo "FAIL: OBSERVE answered '$R_OBSERVE'"; exit 1; }
case "$R_SNAPSHOT" in
    "ERR snapshot failed: "*) ;;
    *) echo "FAIL: SNAPSHOT into a missing directory answered '$R_SNAPSHOT'"; exit 1 ;;
esac
case "$R_STATS" in
    "OK paths=1 observations=1 "*) ;;
    *) echo "FAIL: STATS after a failed SNAPSHOT answered '$R_STATS'"; exit 1 ;;
esac
kill -INT "$SERVE_PID"
RC=0
wait "$SERVE_PID" || RC=$?
SERVE_PID=
[ "$RC" -eq 2 ] || { echo "FAIL: failed final snapshot exited $RC (want 2)"; exit 1; }
grep -q "no-such-dir/x.snap" "$WORK/bad.err" || {
    echo "FAIL: failed final snapshot did not name its file"
    cat "$WORK/bad.err"
    exit 1
}
[ ! -e "$WORK/no-such-dir" ] || { echo "FAIL: a failed snapshot left files"; exit 1; }

echo "ci_serve_check: live daemon is byte-identical to the offline engine," \
     "including across a SIGINT-snapshot-restart; a failed snapshot answers ERR"

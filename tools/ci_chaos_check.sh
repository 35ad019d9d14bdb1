#!/usr/bin/env bash
# Crash-recovery gate (DESIGN.md §15.3–15.4): campaigns that SIGKILL
# themselves on a seeded $REPRO_CHAOS schedule are rerun with --resume until
# they finish, and every finished output must be byte-identical to a
# chaos-free serial run. Legs: kills at --jobs 1–4 into a CSV and into a
# record store, a campaign-2 grid, and a SIGINT-ed run finished by the
# rerun loop. This is the end-to-end proof that the journal plus --resume
# keep the determinism contract through real process deaths at any job
# count. Runs as the chaos_resume ctest.
#
# Usage: tools/ci_chaos_check.sh path/to/tcppred_campaign
set -eu

CAMPAIGN=${1:?usage: ci_chaos_check.sh path/to/tcppred_campaign}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Rerun a campaign command until it survives its chaos schedule. A run that
# SIGKILLs itself exits 137; the next run gets the next $REPRO_CHAOS_ATTEMPT,
# which re-rolls the schedule, and its --resume picks up the journal. Sets
# KILLS to the number of kills survived.
rerun_until_done() {  # chaos spec, log, command... (with --resume)
    local spec=$1 log=$2 attempt=0 rc
    shift 2
    KILLS=0
    while :; do
        rc=0
        # The group's redirection also takes the shell's "Killed" notice.
        { REPRO_CHAOS=$spec REPRO_CHAOS_ATTEMPT=$attempt "$@"; } 2>>"$log" || rc=$?
        [ "$rc" -eq 137 ] || break
        KILLS=$((KILLS + 1))
        attempt=$((attempt + 1))
        [ "$attempt" -lt 200 ] || { echo "FAIL: no convergence after $attempt attempts"; exit 1; }
    done
    [ "$rc" -eq 0 ] || { echo "FAIL: chaos run exited $rc (want 0, or 137 to rerun)"; exit 1; }
}

# Fails unless `out` equals `golden` and the run left no journal behind.
# Every leg's schedule kills at least once (kill=0.15,seed=3 plans one at
# linear epoch 5 on attempt 0), so zero kills means chaos never fired.
check_leg() {  # name, golden, out
    cmp "$2" "$3" || { echo "FAIL: $1 differs from the serial golden"; exit 1; }
    [ -f "$3.ckpt" ] && { echo "FAIL: $1 left its journal"; exit 1; }
    [ "$KILLS" -gt 0 ] || { echo "FAIL: $1 was never killed"; exit 1; }
    echo "   ok: $1 survived $KILLS kill(s), byte-identical"
}

# Campaign set 1 grid: 24 epochs, a handful of kills per leg.
ARGS1=(--paths 3 --traces 1 --epochs 8 --transfer-s 1.5 --seed 11)
"$CAMPAIGN" "${ARGS1[@]}" --out "$WORK/golden.csv" --jobs 1 2>/dev/null
"$CAMPAIGN" "${ARGS1[@]}" --out "$WORK/golden.store" --format store --jobs 1 2>/dev/null

for FMT in csv store; do
    for J in 1 2 3 4; do
        echo "== $FMT, --jobs $J, chaos kills"
        rerun_until_done "kill=0.15,seed=3" "$WORK/$FMT$J.log" \
            "$CAMPAIGN" "${ARGS1[@]}" --format "$FMT" --out "$WORK/chaos$J.$FMT" \
            --jobs "$J" --resume
        check_leg "$FMT at --jobs $J" "$WORK/golden.$FMT" "$WORK/chaos$J.$FMT"
    done
done

echo "== campaign set 2, --jobs 2, chaos kills"
ARGS2=(--second-set --paths 2 --traces 1 --epochs 6 --seed 7)
"$CAMPAIGN" "${ARGS2[@]}" --out "$WORK/golden2.csv" --jobs 1 2>/dev/null
rerun_until_done "kill=0.15,seed=3" "$WORK/set2.log" \
    "$CAMPAIGN" "${ARGS2[@]}" --out "$WORK/set2.csv" --jobs 2 --resume
check_leg "second set" "$WORK/golden2.csv" "$WORK/set2.csv"

echo "== SIGINT, then resume under chaos kills"
INT_ARGS=(--paths 4 --traces 1 --epochs 30 --transfer-s 2 --seed 11)
"$CAMPAIGN" "${INT_ARGS[@]}" --out "$WORK/intref.csv" --jobs 1 2>/dev/null
"$CAMPAIGN" "${INT_ARGS[@]}" --out "$WORK/int.csv" --jobs 3 --checkpoint-every 4 \
    2>"$WORK/int.log" &
PID=$!
# Interrupt once the first journal flush has landed.
while [ ! -f "$WORK/int.csv.ckpt" ]; do
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.05
done
kill -INT "$PID" 2>/dev/null || true
RC=0
wait "$PID" || RC=$?
if [ "$RC" -eq 130 ]; then
    echo "   interrupted with exit 130, journal on disk"
    [ -f "$WORK/int.csv.ckpt" ] || { echo "FAIL: SIGINT left no journal"; exit 1; }
    [ -f "$WORK/int.csv" ] && { echo "FAIL: interrupted run wrote its output"; exit 1; }
elif [ "$RC" -eq 0 ]; then
    # Extremely fast machine: the run beat the signal. The rerun below
    # starts from scratch, so the byte-identity check still holds.
    echo "   note: campaign finished before SIGINT landed"
else
    echo "FAIL: interrupted campaign exited $RC (want 130)"
    exit 1
fi
rerun_until_done "kill=0.1,seed=6" "$WORK/int.log" \
    "$CAMPAIGN" "${INT_ARGS[@]}" --out "$WORK/int.csv" --jobs 2 --resume
cmp "$WORK/intref.csv" "$WORK/int.csv" || {
    echo "FAIL: SIGINT-ed run resumed under chaos differs from the serial reference"
    exit 1
}
[ -f "$WORK/int.csv.ckpt" ] && { echo "FAIL: resumed run left its journal"; exit 1; }
echo "   ok: resumed after SIGINT and $KILLS kill(s), byte-identical"

echo "ci_chaos_check: every chaos-killed campaign resumed byte-identical to serial"

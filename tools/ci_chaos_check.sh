#!/usr/bin/env bash
# CI gate for multi-process campaign supervision (DESIGN.md §15): run
# sharded campaigns under seeded process chaos — workers SIGKILL and wedge
# themselves on a $REPRO_CHAOS schedule — and require every merged CSV, and
# one merged record store, to be byte-identical to a chaos-free serial run.
# Also interrupts a supervised run with SIGINT (expect exit 130 + resumable
# shard journals) and resumes it to the same bytes. This is the end-to-end
# proof that crash detection, hang detection, retry/backoff and the shard
# merge preserve the determinism contract through real process deaths.
#
# Usage: tools/ci_chaos_check.sh path/to/tcppred_campaign
set -eu

CAMPAIGN=${1:?usage: ci_chaos_check.sh path/to/tcppred_campaign}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Campaign set 1 grid, sized to restart workers a handful of times per run
# while keeping the whole gate well under a minute.
ARGS1=(--paths 3 --traces 1 --epochs 8 --transfer-s 1.5 --seed 11)

echo "== serial golden (campaign set 1, no chaos)"
"$CAMPAIGN" "${ARGS1[@]}" --out "$WORK/golden1.csv" --jobs 1 2>/dev/null

for W in 2 3 4; do
    echo "== supervised, $W worker(s), chaos kills"
    REPRO_CHAOS="kill=0.15,seed=3" \
        "$CAMPAIGN" "${ARGS1[@]}" --out "$WORK/sup$W.csv" --workers "$W" \
        2>"$WORK/sup$W.log"
    cmp "$WORK/golden1.csv" "$WORK/sup$W.csv" || {
        echo "FAIL: $W-worker chaos run differs from the serial golden"
        exit 1
    }
done
grep -q "restart" "$WORK/sup3.log" || {
    echo "FAIL: supervisor log reports no restarts under kill chaos"
    exit 1
}

echo "== supervised, 3 workers, chaos kills, into a record store"
# Shard journals torn by real SIGKILLs, resumed, then merged into a store:
# its bytes must equal a serial store run's.
"$CAMPAIGN" "${ARGS1[@]}" --out "$WORK/golden1.store" --format store --jobs 1 2>/dev/null
REPRO_CHAOS="kill=0.15,seed=3" \
    "$CAMPAIGN" "${ARGS1[@]}" --out "$WORK/sup.store" --format store --workers 3 \
    2>"$WORK/sup_store.log"
cmp "$WORK/golden1.store" "$WORK/sup.store" || {
    echo "FAIL: 3-worker chaos store run differs from the serial store golden"
    exit 1
}
grep -q "restart" "$WORK/sup_store.log" || {
    echo "FAIL: supervisor log reports no restarts under kill chaos (store leg)"
    exit 1
}

echo "== supervised, 3 workers, chaos kills + hangs (1 s heartbeat timeout)"
REPRO_CHAOS="kill=0.1,hang=0.08,seed=4" \
    "$CAMPAIGN" "${ARGS1[@]}" --out "$WORK/hang.csv" --workers 3 \
    --hang-timeout-s 1 2>"$WORK/hang.log"
cmp "$WORK/golden1.csv" "$WORK/hang.csv" || {
    echo "FAIL: kill+hang chaos run differs from the serial golden"
    exit 1
}

echo "== serial golden (campaign set 2, no chaos)"
ARGS2=(--second-set --paths 2 --traces 1 --epochs 6 --seed 7)
"$CAMPAIGN" "${ARGS2[@]}" --out "$WORK/golden2.csv" --jobs 1 2>/dev/null

echo "== supervised, 2 workers, chaos kills, second set"
REPRO_CHAOS="kill=0.15,seed=5" \
    "$CAMPAIGN" "${ARGS2[@]}" --out "$WORK/sup2nd.csv" --workers 2 \
    2>"$WORK/sup2nd.log"
cmp "$WORK/golden2.csv" "$WORK/sup2nd.csv" || {
    echo "FAIL: second-set chaos run differs from the serial golden"
    exit 1
}

echo "== SIGINT a supervised chaos run, then resume"
INT_ARGS=(--paths 4 --traces 1 --epochs 30 --transfer-s 2 --seed 11)
"$CAMPAIGN" "${INT_ARGS[@]}" --out "$WORK/intref.csv" --jobs 1 2>/dev/null
REPRO_CHAOS="kill=0.1,seed=6" \
    "$CAMPAIGN" "${INT_ARGS[@]}" --out "$WORK/int.csv" --workers 3 \
    2>"$WORK/int.log" &
PID=$!
# Interrupt once at least one shard has flushed a checkpoint.
while ! ls "$WORK"/int.csv.shard-*.ckpt >/dev/null 2>&1; do
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.05
done
kill -INT "$PID" 2>/dev/null || true
RC=0
wait "$PID" || RC=$?
if [ "$RC" -eq 130 ]; then
    echo "   interrupted with exit 130"
    ls "$WORK"/int.csv.shard-*.ckpt >/dev/null 2>&1 || {
        echo "FAIL: SIGINT left no resumable shard checkpoints"
        exit 1
    }
elif [ "$RC" -eq 0 ]; then
    # Extremely fast machine: the run beat the signal; the resume leg below
    # still validates byte identity.
    echo "   note: supervised run finished before SIGINT landed"
else
    echo "FAIL: interrupted supervisor exited $RC (want 130)"
    exit 1
fi
REPRO_CHAOS="kill=0.1,seed=6" \
    "$CAMPAIGN" "${INT_ARGS[@]}" --out "$WORK/int.csv" --workers 3 \
    2>>"$WORK/int.log"
cmp "$WORK/intref.csv" "$WORK/int.csv" || {
    echo "FAIL: resumed supervised run differs from the serial reference"
    exit 1
}
ls "$WORK"/int.csv.shard-*.ckpt >/dev/null 2>&1 && {
    echo "FAIL: completed supervised run left shard checkpoints behind"
    exit 1
}

echo "ci_chaos_check: all supervised chaos runs byte-identical to serial goldens"

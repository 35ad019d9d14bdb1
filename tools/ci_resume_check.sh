#!/usr/bin/env bash
# CI gate for campaign crash-recovery: run a small faulty campaign, kill it
# mid-flight with SIGINT, resume from the checkpoint journal at another job
# count, and require the final output to be byte-identical to an
# uninterrupted run — once as a CSV and once as a record store. This is the
# end-to-end proof that the journal + --resume preserve the determinism
# contract (DESIGN.md §10.4) through a real process death, not just an
# in-process cancellation flag.
#
# Usage: tools/ci_resume_check.sh path/to/tcppred_campaign
set -eu

CAMPAIGN=${1:?usage: ci_resume_check.sh path/to/tcppred_campaign}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Sized so the interrupted leg runs long enough for the signal to land
# mid-campaign on any CI machine, but stays well under a minute overall.
ARGS=(--paths 2 --traces 2 --epochs 60 --transfer-s 2 --seed 11
      --faults "pathload=0.2,abort=0.2,seed=5")

# One leg per output format: both run the same sweep and journal.
resume_leg() {  # format (also the output's extension)
    local fmt=$1 ext=$1
    echo "== $fmt: reference run (uninterrupted)"
    "$CAMPAIGN" "${ARGS[@]}" --format "$fmt" --out "$WORK/reference.$ext" --jobs 4 2>/dev/null

    echo "== $fmt: interrupted run"
    "$CAMPAIGN" "${ARGS[@]}" --format "$fmt" --out "$WORK/resumed.$ext" \
        --checkpoint-every 4 --jobs 2 2>/dev/null &
    local pid=$!
    # Interrupt as soon as the first journal flush has landed.
    while [ ! -f "$WORK/resumed.$ext.ckpt" ]; do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.05
    done
    kill -INT "$pid" 2>/dev/null || true
    local rc=0
    wait "$pid" || rc=$?
    if [ "$rc" -eq 130 ]; then
        echo "   interrupted with exit 130, journal on disk"
        [ -f "$WORK/resumed.$ext.ckpt" ] || { echo "FAIL: SIGINT left no journal"; exit 1; }
        [ -f "$WORK/resumed.$ext" ] && { echo "FAIL: interrupted run wrote its output"; exit 1; }
    elif [ "$rc" -eq 0 ]; then
        # Extremely fast machine: the run beat the signal. The resume below
        # still re-runs from scratch, so the byte-identity check holds.
        echo "   note: campaign finished before SIGINT landed"
    else
        echo "FAIL: interrupted campaign exited $rc (want 130)"
        exit 1
    fi

    echo "== $fmt: resumed run (different job count)"
    "$CAMPAIGN" "${ARGS[@]}" --format "$fmt" --out "$WORK/resumed.$ext" --resume \
        --jobs 3 2>/dev/null

    cmp "$WORK/reference.$ext" "$WORK/resumed.$ext" || {
        echo "FAIL: resumed $fmt output differs from the uninterrupted run"; exit 1; }
    [ -f "$WORK/resumed.$ext.ckpt" ] && { echo "FAIL: completed run left its journal"; exit 1; }
    echo "   ok: resumed $fmt output is byte-identical to the uninterrupted run"
}

resume_leg csv
resume_leg store
echo "ci_resume_check: resumed campaigns are byte-identical to uninterrupted runs"

#!/usr/bin/env bash
# The byte-identity contract of DESIGN.md §13.6 as one command: run the same
# campaigns with two builds of tcppred_campaign and require every CSV to be
# cmp-identical.
#
# Legs, in each cross-traffic model (packet, fluid):
#   - campaign 1 and campaign 2 at the chosen scale, at --jobs 1 and --jobs 4;
#   - one faulted campaign-1 grid at --jobs 4, with
#     --faults pathload=0.2,ping-timeout=0.05,ping-truncate=0.1,abort=0.1,outage=0.1
#     (12 x 1 x 40 epochs; 4 x 1 x 10 at tiny scale).
# Each leg prints one line; the script exits 1 if any CSV differs or any run
# fails. Scales are the campaign presets (campaign1_config/campaign2_config);
# normal scale takes about eight minutes on 4 cores.
#
# Usage: tools/identity_check.sh OLD_CAMPAIGN NEW_CAMPAIGN [tiny|normal|paper]
set -u

usage() {
    echo "usage: identity_check.sh OLD_CAMPAIGN NEW_CAMPAIGN [tiny|normal|paper]" >&2
    exit 1
}
[ $# -ge 2 ] && [ $# -le 3 ] || usage
OLD=$1
NEW=$2
SCALE=${3:-tiny}
case "$SCALE" in
    tiny)   C1=(--paths 8 --traces 1 --epochs 45);  C2=(--paths 4 --traces 1 --epochs 15)
            FAULTED=(--paths 4 --traces 1 --epochs 10) ;;
    normal) C1=(--paths 35 --traces 2 --epochs 120); C2=(--paths 24 --traces 1 --epochs 60)
            FAULTED=(--paths 12 --traces 1 --epochs 40) ;;
    paper)  C1=(--paths 35 --traces 7 --epochs 150); C2=(--paths 24 --traces 3 --epochs 120)
            FAULTED=(--paths 12 --traces 1 --epochs 40) ;;
    *) usage ;;
esac
for bin in "$OLD" "$NEW"; do
    [ -x "$bin" ] || { echo "not an executable: $bin" >&2; exit 1; }
done
FAULTS=pathload=0.2,ping-timeout=0.05,ping-truncate=0.1,abort=0.1,outage=0.1

# Only the flags below may shape the campaigns.
unset REPRO_CROSS_MODEL REPRO_FAULTS REPRO_FAULT_SEED REPRO_FAULT_PATHLOAD \
      REPRO_FAULT_PING_TIMEOUT REPRO_FAULT_PING_TRUNCATE REPRO_FAULT_ABORT \
      REPRO_FAULT_OUTAGE REPRO_CHAOS REPRO_CHAOS_ATTEMPT REPRO_TRACE REPRO_METRICS

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
FAILED=0

# leg NAME ARGS...: run both builds with ARGS and cmp the CSVs.
leg() {
    local name=$1
    shift
    local rc_old=0 rc_new=0
    "$OLD" "$@" --out "$WORK/old.csv" 2>"$WORK/old.err" || rc_old=$?
    "$NEW" "$@" --out "$WORK/new.csv" 2>"$WORK/new.err" || rc_new=$?
    if [ "$rc_old" -ne 0 ] || [ "$rc_new" -ne 0 ]; then
        printf 'FAIL      %-28s exit old=%d new=%d\n' "$name" "$rc_old" "$rc_new"
        tail -n 3 "$WORK/old.err" "$WORK/new.err" | sed 's/^/          /'
        FAILED=1
    elif cmp -s "$WORK/old.csv" "$WORK/new.csv"; then
        printf 'identical %-28s %s lines\n' "$name" "$(wc -l <"$WORK/new.csv")"
    else
        printf 'DIFFERS   %-28s first difference at %s\n' "$name" \
            "$(cmp "$WORK/old.csv" "$WORK/new.csv" 2>&1 | sed 's/.*differ: //')"
        FAILED=1
    fi
    rm -f "$WORK/old.csv" "$WORK/new.csv"
}

echo "identity check at $SCALE scale: $OLD vs $NEW"
for model in packet fluid; do
    for jobs in 1 4; do
        leg "campaign1 $model jobs=$jobs" "${C1[@]}" --cross-model "$model" --jobs "$jobs"
        leg "campaign2 $model jobs=$jobs" --second-set "${C2[@]}" --cross-model "$model" \
            --jobs "$jobs"
    done
    leg "faulted $model jobs=4" "${FAULTED[@]}" --cross-model "$model" --jobs 4 \
        --faults "$FAULTS"
done

if [ "$FAILED" -ne 0 ]; then
    echo "identity check FAILED"
    exit 1
fi
echo "identity check passed: every CSV is byte-identical"

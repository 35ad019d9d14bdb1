#!/usr/bin/env bash
# The byte-identity contract of DESIGN.md §13.6 as one command: run the same
# campaigns and analyses with two builds and require every output to be
# cmp-identical.
#
# Campaign legs, in each cross-traffic model (packet, fluid):
#   - campaign 1 and campaign 2 at the chosen scale, at --jobs 1 and --jobs 4;
#   - one faulted campaign-1 grid at --jobs 4, with
#     --faults pathload=0.2,ping-timeout=0.05,ping-truncate=0.1,abort=0.1,outage=0.1
#     (12 x 1 x 40 epochs; 4 x 1 x 10 at tiny scale).
# Analysis legs, on a clean and a faulted campaign-1 dataset (packet model,
# --faults pathload=0.5,abort=0.2): each build writes the campaign as a
# record store, exports it to CSV, and runs its own tcppred_analyze on the
# CSV and with --from-store, and its own tcppred_loadgen --offline
# (hexfloat predictions, so that leg is bitwise), over the benchmark's
# eight specs plus fb:sqrt, fb:pftk-full and fb:minwa. Each build's
# tcppred_analyze and tcppred_loadgen are found beside its tcppred_campaign.
# Each leg prints one line; the script exits 1 if any output differs or any
# run fails. A leg that differs keeps both outputs in the work directory,
# which then outlives the run, and prints their first differing lines.
# Scales are the campaign presets (campaign1_config/campaign2_config); normal
# scale takes about ten minutes on 4 cores.
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
    for tool in "$bin" "$(dirname "$bin")/tcppred_analyze" "$(dirname "$bin")/tcppred_loadgen"; do
        [ -x "$tool" ] || { echo "not an executable: $tool" >&2; exit 1; }
    done
done
FAULTS=pathload=0.2,ping-timeout=0.05,ping-truncate=0.1,abort=0.1,outage=0.1
# Failed a-priori measurements often enough to run past the FB staleness
# bound (3 epochs) many times per dataset. No ping-timeout: one timed-out
# probe flags the epoch's a-priori view failed, and at any useful rate
# nearly every epoch has one, leaving FB nothing to fall back on.
ANALYSIS_FAULTS=pathload=0.5,abort=0.2
SPECS=fb:pftk,10-MA,10-MA-LSO,0.8-HW,0.8-HW-LSO,NWS,5-AR-LSO,hybrid:0.8-HW-LSO
SPECS+=,fb:sqrt,fb:pftk-full,fb:minwa

# Only the flags below may shape the runs: older builds compared against
# read the fault and cross-model variables that the flags replaced.
unset REPRO_FAULTS REPRO_CHAOS REPRO_CHAOS_ATTEMPT REPRO_TRACE REPRO_METRICS \
      REPRO_CROSS_MODEL REPRO_FAULT_SEED REPRO_FAULT_PATHLOAD REPRO_FAULT_PING_TIMEOUT \
      REPRO_FAULT_PING_TRUNCATE REPRO_FAULT_ABORT REPRO_FAULT_OUTAGE

WORK=$(mktemp -d)
KEPT=0
trap 'if [ "$KEPT" -eq 0 ]; then rm -rf "$WORK"; fi' EXIT
FAILED=0

# run B TOOL ARGS...: run build B's (old or new) TOOL — its tcppred_campaign
# or the tool of that name beside it — with "@B@" in ARGS replaced by B;
# stdout to $WORK/B.out, stderr to $WORK/B.err.
run() {
    local b=$1 bin=$OLD
    [ "$b" = new ] && bin=$NEW
    [ "$2" = tcppred_campaign ] || bin=$(dirname "$bin")/$2
    shift 2
    "$bin" "${@//@B@/$b}" >"$WORK/$b.out" 2>"$WORK/$b.err"
}

# leg NAME OUTPUT TOOL ARGS...: run TOOL of both builds and cmp their OUTPUT
# (a path with "@B@" for the build, or "-" for stdout).
leg() {
    local name=$1 output=$2
    shift 2
    local rc_old=0 rc_new=0
    run old "$@" || rc_old=$?
    run new "$@" || rc_new=$?
    [ "$output" = - ] && output=$WORK/@B@.out
    local old_out=${output//@B@/old} new_out=${output//@B@/new}
    if [ "$rc_old" -ne 0 ] || [ "$rc_new" -ne 0 ]; then
        printf 'FAIL      %-32s exit old=%d new=%d\n' "$name" "$rc_old" "$rc_new"
        tail -n 3 "$WORK/old.err" "$WORK/new.err" | sed 's/^/          /'
        FAILED=1
    elif cmp -s "$old_out" "$new_out"; then
        printf 'identical %-32s %s lines\n' "$name" "$(wc -l <"$new_out")"
    else
        local kept
        kept=$WORK/$(printf '%s' "$name" | tr -c 'A-Za-z0-9=.-' _)
        mv "$old_out" "$kept.old"
        mv "$new_out" "$kept.new"
        printf 'DIFFERS   %-32s first difference at %s\n' "$name" \
            "$(cmp "$kept.old" "$kept.new" 2>&1 | sed 's/.*differ: //')"
        printf '          kept as %s.old and .new:\n' "$kept"
        diff "$kept.old" "$kept.new" | head -n 12 | sed 's/^/          /'
        KEPT=1
        FAILED=1
    fi
    rm -f "$old_out" "$new_out"
}

# analysis_legs NAME CAMPAIGN_ARGS...: each build writes the campaign as a
# record store and its CSV export; then cmp the builds' analyses of them.
analysis_legs() {
    local name=$1
    shift
    local b
    for b in old new; do
        if ! run "$b" tcppred_campaign "$@" --format store --out "$WORK/$b.store" ||
            ! run "$b" tcppred_campaign --convert "$WORK/$b.store" --out "$WORK/$b.csv"; then
            printf 'FAIL      %-32s %s campaign run\n' "$name" "$b"
            tail -n 3 "$WORK/$b.err" | sed 's/^/          /'
            FAILED=1
            return
        fi
    done
    leg "$name analyze csv" - tcppred_analyze "$WORK/@B@.csv" --predictors "$SPECS"
    leg "$name analyze store" - tcppred_analyze --from-store "$WORK/@B@.store" \
        --predictors "$SPECS"
    leg "$name loadgen offline" "$WORK/@B@.pred" tcppred_loadgen \
        --from-store "$WORK/@B@.store" --specs "$SPECS" --offline "$WORK/@B@.pred"
    rm -f "$WORK"/old.store "$WORK"/new.store "$WORK"/old.csv "$WORK"/new.csv
}

echo "identity check at $SCALE scale: $OLD vs $NEW"
for model in packet fluid; do
    for jobs in 1 4; do
        leg "campaign1 $model jobs=$jobs" "$WORK/@B@.csv" tcppred_campaign "${C1[@]}" \
            --cross-model "$model" --jobs "$jobs" --out "$WORK/@B@.csv"
        leg "campaign2 $model jobs=$jobs" "$WORK/@B@.csv" tcppred_campaign --second-set \
            "${C2[@]}" --cross-model "$model" --jobs "$jobs" --out "$WORK/@B@.csv"
    done
    leg "faulted $model jobs=4" "$WORK/@B@.csv" tcppred_campaign "${FAULTED[@]}" \
        --cross-model "$model" --jobs 4 --faults "$FAULTS" --out "$WORK/@B@.csv"
done
analysis_legs "analysis clean" "${C1[@]}" --jobs 4
analysis_legs "analysis faulted" "${C1[@]}" --jobs 4 --faults "$ANALYSIS_FAULTS"

if [ "$FAILED" -ne 0 ]; then
    [ "$KEPT" -eq 1 ] && echo "differing outputs kept in $WORK"
    echo "identity check FAILED"
    exit 1
fi
echo "identity check passed: every output is byte-identical"

#!/usr/bin/env bash
# CI gate for the past-RAM contract (DESIGN.md §16): the record-store paths
# must run a campaign and analyze it under address-space caps that a path
# holding the dataset in RAM cannot fit.
#
# The gate self-calibrates instead of hard-coding a byte budget, from the
# mem.vm_peak_kb line of --metrics-summary, with one cap per side:
#   - campaign: VmPeak of the streamed serial store campaign plus a margin
#     of 64 bytes a record. Holding the grid costs about 130 bytes a record
#     (the in-RAM CSV campaign this replaced peaked 1,036 kB above the store
#     campaign on 8,000 records), so a campaign that buffers its records
#     dies; the margin is about 10x the run-to-run VmPeak jitter (70 kB).
#     The campaign in both formats, with and without its checkpoint journal
#     (a CSV campaign streams into a store it then exports), must succeed
#     under it with the uncapped bytes.
#   - analysis: halfway between the streamed analysis (--from-store) and
#     the in-memory one (load_csv). The streamed one must succeed with the
#     uncapped report; the in-memory one must die. A calibration gap below
#     MIN_GAP_KB fails the gate outright — streaming stopped saving memory.
#
# Usage: tools/ci_memcap_check.sh path/to/tcppred_campaign path/to/tcppred_analyze
set -eu

CAMPAIGN=${1:?usage: ci_memcap_check.sh CAMPAIGN_BIN ANALYZE_BIN}
ANALYZE=${2:?usage: ci_memcap_check.sh CAMPAIGN_BIN ANALYZE_BIN}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Big enough that a held grid is megabytes above the streamed peaks, small
# enough for the gate to finish in under two minutes: 4 paths x 2 traces x
# 1500 epochs = 12,000 records, run serially (worker threads' stacks and
# malloc arenas would swamp the campaign's VmPeak).
ARGS=(--paths 4 --traces 2 --epochs 1500 --transfer-s 0.5 --seed 23)
RECORDS=12000
CAMPAIGN_MARGIN_KB=$((RECORDS * 64 / 1024))
MIN_GAP_KB=512

vm_peak() {  # file-with-metrics-summary -> VmPeak in kB
    awk '/mem\.vm_peak_kb/ {print $3; exit}' "$1"
}

echo "== generate the campaign (streamed store, serial), then convert to CSV"
"$CAMPAIGN" "${ARGS[@]}" --out "$WORK/c.store" --format store --jobs 1 \
    --metrics-summary >/dev/null 2>"$WORK/campaign.err"
"$CAMPAIGN" --convert "$WORK/c.store" --out "$WORK/c.csv" 2>/dev/null
CAMPAIGN_KB=$(vm_peak "$WORK/campaign.err")
[ -n "$CAMPAIGN_KB" ] || { echo "FAIL: no mem.vm_peak_kb from the campaign"; exit 1; }
CAMPAIGN_CAP_KB=$((CAMPAIGN_KB + CAMPAIGN_MARGIN_KB))
echo "   streamed campaign peak ${CAMPAIGN_KB} kB, campaign cap ${CAMPAIGN_CAP_KB} kB"

echo "== calibrate: VmPeak of streamed vs in-memory analysis"
"$ANALYZE" --from-store "$WORK/c.store" --metrics-summary \
    >"$WORK/stream.out" 2>"$WORK/stream.err"
"$ANALYZE" "$WORK/c.csv" --metrics-summary \
    >"$WORK/mem.out" 2>"$WORK/mem.err"
cmp -s "$WORK/stream.out" "$WORK/mem.out" || {
    echo "FAIL: streamed and in-memory reports differ"; exit 1; }

STREAM_KB=$(vm_peak "$WORK/stream.err")
MEM_KB=$(vm_peak "$WORK/mem.err")
[ -n "$STREAM_KB" ] && [ -n "$MEM_KB" ] || {
    echo "FAIL: no mem.vm_peak_kb in --metrics-summary output"; exit 1; }
GAP_KB=$((MEM_KB - STREAM_KB))
echo "   streamed peak ${STREAM_KB} kB, in-memory peak ${MEM_KB} kB (gap ${GAP_KB} kB)"
if [ "$GAP_KB" -lt "$MIN_GAP_KB" ]; then
    echo "FAIL: calibration gap ${GAP_KB} kB < ${MIN_GAP_KB} kB —"
    echo "      the streamed path is no longer saving memory over load_csv"
    exit 1
fi

CAP_KB=$((STREAM_KB + GAP_KB / 2))
echo "== enforce: ulimit -v ${CAP_KB} kB on the analysis, ${CAMPAIGN_CAP_KB} kB on the campaign"

# The streamed analysis must fit.
(ulimit -v "$CAP_KB"; exec "$ANALYZE" --from-store "$WORK/c.store") \
    >"$WORK/capped.out" 2>/dev/null || {
    echo "FAIL: streamed analysis died under the cap"; exit 1; }
cmp -s "$WORK/capped.out" "$WORK/stream.out" || {
    echo "FAIL: capped streamed report differs from uncapped"; exit 1; }
echo "   ok: --from-store fits in ${CAP_KB} kB"

# Both formats, with and without the checkpoint journal, which appends each
# batch and never copies the grid. The journal-less store campaign is the
# calibration run above.
for FORMAT in store csv; do
    for JOURNAL in "" "--checkpoint-every 64"; do
        [ "$FORMAT$JOURNAL" = store ] && continue
        # shellcheck disable=SC2086  # JOURNAL is zero or two words
        (ulimit -v "$CAMPAIGN_CAP_KB"; exec "$CAMPAIGN" "${ARGS[@]}" \
            --out "$WORK/capped.$FORMAT" --format "$FORMAT" $JOURNAL --jobs 1) \
            >/dev/null 2>&1 || {
            echo "FAIL: $FORMAT campaign${JOURNAL:+ $JOURNAL} died under the cap"; exit 1; }
        cmp -s "$WORK/capped.$FORMAT" "$WORK/c.$FORMAT" || {
            echo "FAIL: capped $FORMAT${JOURNAL:+ $JOURNAL} differs from uncapped"; exit 1; }
        echo "   ok: --format $FORMAT${JOURNAL:+ $JOURNAL} campaign fits in ${CAMPAIGN_CAP_KB} kB"
    done
done

# The in-memory path must NOT fit — if it does, the cap proves nothing.
if (ulimit -v "$CAP_KB"; exec "$ANALYZE" "$WORK/c.csv") >/dev/null 2>&1; then
    echo "FAIL: in-memory analysis fit under the cap meant to exclude it"
    exit 1
fi
echo "   ok: in-memory analysis exceeds the cap (as intended)"

echo "ci_memcap_check: past-RAM memory gate passed"

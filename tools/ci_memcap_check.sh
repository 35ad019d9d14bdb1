#!/usr/bin/env bash
# CI gate for the past-RAM contract (DESIGN.md §16): the record-store paths
# must analyze a campaign under an address-space cap that the in-memory CSV
# path cannot fit.
#
# The gate self-calibrates instead of hard-coding a byte budget: it runs a
# medium campaign to a store, converts it to CSV, measures VmPeak of the
# streamed analysis (--from-store) and the in-memory analysis (load_csv)
# via the mem.vm_peak_kb line of --metrics-summary, then re-runs both under
# `ulimit -v` pinned halfway between the two peaks. The streamed runs
# (analysis, and the campaign in both formats with and without its
# checkpoint journal — a CSV campaign streams into a store it then exports)
# must succeed with the uncapped bytes; the in-memory run must die. A
# calibration gap below MIN_GAP_KB fails the gate outright — streaming
# stopped saving memory.
#
# Usage: tools/ci_memcap_check.sh path/to/tcppred_campaign path/to/tcppred_analyze
set -eu

CAMPAIGN=${1:?usage: ci_memcap_check.sh CAMPAIGN_BIN ANALYZE_BIN}
ANALYZE=${2:?usage: ci_memcap_check.sh CAMPAIGN_BIN ANALYZE_BIN}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Big enough that whole-dataset retention is megabytes above the streamed
# peak (the calibration gap), small enough to generate in well under a
# minute: 4 paths x 2 traces x 1000 epochs = 8000 records.
ARGS=(--paths 4 --traces 2 --epochs 1000 --transfer-s 0.5 --seed 23)
MIN_GAP_KB=512

vm_peak() {  # file-with-metrics-summary -> VmPeak in kB
    awk '/mem\.vm_peak_kb/ {print $3; exit}' "$1"
}

echo "== generate the campaign (streamed, then convert to CSV)"
"$CAMPAIGN" "${ARGS[@]}" --out "$WORK/c.store" --format store --jobs 4 2>/dev/null
"$CAMPAIGN" --convert "$WORK/c.store" --out "$WORK/c.csv" 2>/dev/null

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
echo "== enforce: ulimit -v ${CAP_KB} kB"

# The streamed analysis (and the streamed campaign itself) must fit.
(ulimit -v "$CAP_KB"; exec "$ANALYZE" --from-store "$WORK/c.store") \
    >"$WORK/capped.out" 2>/dev/null || {
    echo "FAIL: streamed analysis died under the cap"; exit 1; }
cmp -s "$WORK/capped.out" "$WORK/stream.out" || {
    echo "FAIL: capped streamed report differs from uncapped"; exit 1; }
echo "   ok: --from-store fits in ${CAP_KB} kB"

# Both formats, with and without the checkpoint journal, which appends each
# batch and never copies the grid.
for FORMAT in store csv; do
    for JOURNAL in "" "--checkpoint-every 64"; do
        # shellcheck disable=SC2086  # JOURNAL is zero or two words
        (ulimit -v "$CAP_KB"; exec "$CAMPAIGN" "${ARGS[@]}" --out "$WORK/capped.$FORMAT" \
            --format "$FORMAT" $JOURNAL --jobs 1) >/dev/null 2>&1 || {
            echo "FAIL: $FORMAT campaign${JOURNAL:+ $JOURNAL} died under the cap"; exit 1; }
        cmp -s "$WORK/capped.$FORMAT" "$WORK/c.$FORMAT" || {
            echo "FAIL: capped $FORMAT${JOURNAL:+ $JOURNAL} differs from uncapped"; exit 1; }
        echo "   ok: --format $FORMAT${JOURNAL:+ $JOURNAL} campaign fits in ${CAP_KB} kB"
    done
done

# The in-memory path must NOT fit — if it does, the cap proves nothing.
if (ulimit -v "$CAP_KB"; exec "$ANALYZE" "$WORK/c.csv") >/dev/null 2>&1; then
    echo "FAIL: in-memory analysis fit under the cap meant to exclude it"
    exit 1
fi
echo "   ok: in-memory analysis exceeds the cap (as intended)"

echo "ci_memcap_check: past-RAM memory gate passed"

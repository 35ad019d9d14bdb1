#!/usr/bin/env bash
# CLI contract test for the shipped tools, run as a ctest:
#   cli_test.sh <tcppred_campaign> <tcppred_analyze> <tcppred_serve> <tcppred_loadgen>
#
# Verifies the exit-code convention (0 ok / 1 bad args / 2 runtime failure /
# 130 interrupted), that diagnostics land on stderr, the one spec-list
# syntax of the three tools that take specs, and the fault + interrupt +
# --resume byte-identity guarantee end to end.
set -u

USAGE="usage: cli_test.sh CAMPAIGN_BIN ANALYZE_BIN SERVE_BIN LOADGEN_BIN"
CAMPAIGN=${1:?$USAGE}
ANALYZE=${2:?$USAGE}
SERVE=${3:?$USAGE}
LOADGEN=${4:?$USAGE}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

check_exit() {  # description expected actual
    if [ "$3" -ne "$2" ]; then
        echo "FAIL: $1 (expected exit $2, got $3)"
        FAILURES=$((FAILURES + 1))
    else
        echo "ok: $1"
    fi
}

TINY="--paths 2 --traces 1 --epochs 3 --transfer-s 1.5"

# --- bad arguments -> 1, usage on stderr, nothing on stdout
"$CAMPAIGN" >"$WORK/out" 2>"$WORK/err"; check_exit "campaign without --out" 1 $?
[ -s "$WORK/out" ] && { echo "FAIL: campaign usage leaked to stdout"; FAILURES=$((FAILURES+1)); }
grep -q "usage:" "$WORK/err" || { echo "FAIL: campaign usage not on stderr"; FAILURES=$((FAILURES+1)); }

"$CAMPAIGN" --no-such-flag >/dev/null 2>&1; check_exit "campaign unknown flag" 1 $?
"$CAMPAIGN" --out "$WORK/x.csv" --faults "bogus=1" >/dev/null 2>&1
check_exit "campaign bad --faults spec" 1 $?
# The fault seed enters the checkpoint fingerprint: a partial or negative
# token is a bad spec, never a truncated or wrapped seed.
"$CAMPAIGN" $TINY --out "$WORK/x.csv" --faults "pathload=0.5,seed=12x" >/dev/null 2>&1
check_exit "campaign --faults seed=12x" 1 $?
"$CAMPAIGN" $TINY --out "$WORK/x.csv" --faults "pathload=0.5,seed=-1" >/dev/null 2>&1
check_exit "campaign --faults seed=-1" 1 $?
"$CAMPAIGN" $TINY --out "$WORK/x.csv" --faults seed=7zz >/dev/null 2>&1
check_exit "campaign --faults seed=7zz" 1 $?
REPRO_CHAOS=seed=7zz "$CAMPAIGN" $TINY --out "$WORK/x.csv" >/dev/null 2>&1
check_exit "campaign REPRO_CHAOS=seed=7zz" 1 $?
# Chaos kills only: a wedged process has no observer to notice it.
REPRO_CHAOS=hang=0.1 "$CAMPAIGN" $TINY --out "$WORK/x.csv" >/dev/null 2>&1
check_exit "campaign REPRO_CHAOS=hang=0.1" 1 $?
# Crash recovery on one host is --jobs N plus --resume; there is no process
# supervisor, and its flags are unknown arguments.
for FLAG in "--workers 2" "--worker-jobs 2" "--hang-timeout-s 1" "--max-attempts 3"; do
    # shellcheck disable=SC2086  # FLAG is a flag and its value
    "$CAMPAIGN" $TINY --out "$WORK/x.csv" $FLAG >/dev/null 2>"$WORK/err"
    check_exit "campaign $FLAG" 1 $?
    grep -q "unknown argument: ${FLAG%% *}" "$WORK/err" || { echo "FAIL: $FLAG not reported as an unknown argument"; FAILURES=$((FAILURES+1)); }
done
[ -f "$WORK/x.csv" ] && { echo "FAIL: a refused flag still ran the campaign"; FAILURES=$((FAILURES+1)); }

# --- malformed flag VALUES -> 2, diagnostic names the flag (the checked
# parser of core/checked_parse.hpp; atoi used to turn these into 0 silently)
"$CAMPAIGN" --out "$WORK/x.csv" --paths foo >/dev/null 2>"$WORK/err"
check_exit "campaign --paths foo" 2 $?
grep -q -- "--paths" "$WORK/err" || { echo "FAIL: bad --paths error does not name the flag"; FAILURES=$((FAILURES+1)); }
"$CAMPAIGN" --out "$WORK/x.csv" --paths -3 >/dev/null 2>"$WORK/err"
check_exit "campaign --paths -3" 2 $?
grep -q -- "--paths" "$WORK/err" || { echo "FAIL: negative --paths error does not name the flag"; FAILURES=$((FAILURES+1)); }
"$CAMPAIGN" --out "$WORK/x.csv" --epochs 3.5 >/dev/null 2>&1
check_exit "campaign --epochs 3.5" 2 $?
"$CAMPAIGN" --out "$WORK/x.csv" --seed -1 >/dev/null 2>&1
check_exit "campaign --seed -1" 2 $?
"$CAMPAIGN" --out "$WORK/x.csv" --transfer-s banana >/dev/null 2>&1
check_exit "campaign --transfer-s banana" 2 $?

# Garbage in an env knob fails just as loudly, naming the variable.
REPRO_JOBS=garbage "$CAMPAIGN" $TINY --out "$WORK/x.csv" >/dev/null 2>"$WORK/err"
check_exit "campaign REPRO_JOBS=garbage" 2 $?
grep -q "REPRO_JOBS" "$WORK/err" || { echo "FAIL: bad REPRO_JOBS error does not name the variable"; FAILURES=$((FAILURES+1)); }
# ...while 0 still means auto (the documented --jobs 0 alias).
REPRO_JOBS=0 "$CAMPAIGN" $TINY --out "$WORK/envjobs.csv" >/dev/null 2>&1
check_exit "campaign REPRO_JOBS=0 is auto" 0 $?
"$ANALYZE" >/dev/null 2>&1; check_exit "analyze without dataset" 1 $?
"$ANALYZE" --help >/dev/null 2>&1; check_exit "analyze --help" 0 $?

# --- runtime failure -> 2
"$ANALYZE" "$WORK/does-not-exist.csv" >/dev/null 2>"$WORK/err"
check_exit "analyze missing dataset" 2 $?
grep -q "error:" "$WORK/err" || { echo "FAIL: analyze error not on stderr"; FAILURES=$((FAILURES+1)); }

printf 'not,a,campaign\ncsv,at,all\n' > "$WORK/garbage.csv"
"$ANALYZE" "$WORK/garbage.csv" >/dev/null 2>&1
check_exit "analyze malformed dataset" 2 $?

# --- success -> 0, CSV written, analyze reads it back
"$CAMPAIGN" $TINY --out "$WORK/clean.csv" --jobs 2 >/dev/null 2>&1
check_exit "campaign tiny clean run" 0 $?
[ -s "$WORK/clean.csv" ] || { echo "FAIL: no CSV written"; FAILURES=$((FAILURES+1)); }
# The staging store the CSV is exported from is gone: only the CSV is left.
[ "$(ls "$WORK"/clean.csv*)" = "$WORK/clean.csv" ] || { echo "FAIL: CSV run left files beside its CSV"; FAILURES=$((FAILURES+1)); }
"$ANALYZE" "$WORK/clean.csv" >"$WORK/analyze.out" 2>/dev/null
check_exit "analyze clean dataset" 0 $?
grep -q "formula-based" "$WORK/analyze.out" || { echo "FAIL: analyze summary missing"; FAILURES=$((FAILURES+1)); }

# --- predictor specs: valid list -> 0 and per-spec rows; bad spec -> 2 with
# the offending spec named on stderr
"$ANALYZE" "$WORK/clean.csv" --predictors 5-MA,fb:sqrt,hybrid:0.8-HW >"$WORK/specs.out" 2>/dev/null
check_exit "analyze custom --predictors" 0 $?
for spec in 5-MA fb:sqrt hybrid:0.8-HW; do
    grep -q "$spec" "$WORK/specs.out" || { echo "FAIL: --predictors row for $spec missing"; FAILURES=$((FAILURES+1)); }
done
# fb:pftk always runs for the FB summary; listing it must not evaluate it a
# second time, so both lists score the same number of epochs.
scored_epochs() {  # predictor list
    "$ANALYZE" "$WORK/clean.csv" --predictors "$1" --metrics-summary 2>&1 >/dev/null |
        awk '$1 == "counter" && $2 == "engine.epochs_scored" { print $3 }'
}
SCORED_HB=$(scored_epochs 10-MA)
SCORED_FB_HB=$(scored_epochs fb:pftk,10-MA)
if [ -n "$SCORED_HB" ] && [ "$SCORED_HB" = "$SCORED_FB_HB" ]; then
    echo "ok: a listed fb:pftk is evaluated once ($SCORED_HB epochs scored)"
else
    echo "FAIL: epochs scored with 10-MA ($SCORED_HB) and fb:pftk,10-MA ($SCORED_FB_HB) differ"
    FAILURES=$((FAILURES + 1))
fi
# An alias is the same predictor: fb is fb:pftk, evaluated once too.
SCORED_ALIAS=$(scored_epochs fb,10-MA)
if [ -n "$SCORED_ALIAS" ] && [ "$SCORED_ALIAS" = "$SCORED_FB_HB" ]; then
    echo "ok: a listed alias of fb:pftk is evaluated once ($SCORED_ALIAS epochs scored)"
else
    echo "FAIL: epochs scored with fb,10-MA ($SCORED_ALIAS) and fb:pftk,10-MA ($SCORED_FB_HB) differ"
    FAILURES=$((FAILURES + 1))
fi
"$ANALYZE" "$WORK/clean.csv" --predictors bogus >/dev/null 2>"$WORK/err"
check_exit "analyze unknown predictor spec" 2 $?
grep -q "bad predictor spec 'bogus'" "$WORK/err" || { echo "FAIL: spec error does not name the spec"; FAILURES=$((FAILURES+1)); }

# The HB table's predictor column is as wide as the longest spec: every
# row's numbers end where the header's column names end.
"$ANALYZE" "$WORK/clean.csv" --predictors 10-MA,hybrid:0.8-HW-LSO >"$WORK/wide.out" 2>/dev/null
check_exit "analyze with a spec longer than the default column" 0 $?
# column_ends LINE: the offsets at which its 2nd to 4th fields end.
column_ends() {
    awk '{ rest = $0; end = 0; out = ""
           for (i = 1; i <= 4; i++) {
               at = index(rest, $i); end += at + length($i) - 1
               rest = substr(rest, at + length($i))
               if (i > 1) out = out " " end
           }
           print out }' <<<"$1"
}
HEADER=$(grep -m1 "^  predictor " "$WORK/wide.out")
HYBRID=$(grep -m1 "^  hybrid:0.8-HW-LSO " "$WORK/wide.out")
if [ -z "$HYBRID" ] || [ "$(column_ends "$HEADER")" != "$(column_ends "$HYBRID")" ]; then
    echo "FAIL: the hybrid row does not line up with the HB table header"
    FAILURES=$((FAILURES + 1))
else
    echo "ok: the hybrid row lines up with the HB table header"
fi

# --- faulty campaign: deterministic for a fixed seed, analyze conditions on it
FAULTS="pathload=0.3,abort=0.4,seed=7"
"$CAMPAIGN" $TINY --epochs 4 --out "$WORK/faulty1.csv" --faults "$FAULTS" --jobs 2 >/dev/null 2>&1
check_exit "faulty campaign run 1" 0 $?
"$CAMPAIGN" $TINY --epochs 4 --out "$WORK/faulty2.csv" --faults "$FAULTS" --jobs 1 >/dev/null 2>&1
check_exit "faulty campaign run 2" 0 $?
cmp -s "$WORK/faulty1.csv" "$WORK/faulty2.csv"
check_exit "faulty runs byte-identical across job counts" 0 $?
grep -q "fault_flags" "$WORK/faulty1.csv" || { echo "FAIL: faulty CSV lacks fault_flags"; FAILURES=$((FAILURES+1)); }
grep -q "fault_flags" "$WORK/clean.csv" && { echo "FAIL: clean CSV has fault_flags column"; FAILURES=$((FAILURES+1)); }
"$ANALYZE" "$WORK/faulty1.csv" >"$WORK/faulty.out" 2>/dev/null
check_exit "analyze faulty dataset" 0 $?
grep -q "measurement status" "$WORK/faulty.out" || { echo "FAIL: analyze lacks fault-conditioned RMSRE"; FAILURES=$((FAILURES+1)); }

# --- observability flags: --trace writes parseable JSONL, --metrics-summary
# prints the counter table to stderr, --from-trace round-trips, and a
# malformed trace is a runtime failure (2).
"$CAMPAIGN" $TINY --out "$WORK/obs.csv" --trace "$WORK/obs.jsonl" \
    --metrics-summary >/dev/null 2>"$WORK/obs.err"
check_exit "campaign with --trace and --metrics-summary" 0 $?
[ -s "$WORK/obs.jsonl" ] || { echo "FAIL: --trace wrote nothing"; FAILURES=$((FAILURES+1)); }
grep -q '"ev":"epoch"' "$WORK/obs.jsonl" || { echo "FAIL: trace lacks epoch events"; FAILURES=$((FAILURES+1)); }
grep -q "== metrics summary ==" "$WORK/obs.err" || { echo "FAIL: metrics summary not on stderr"; FAILURES=$((FAILURES+1)); }
# $REPRO_METRICS=1 together with --metrics-summary prints one summary.
summary_once() {  # description stderr-file
    local n
    n=$(grep -c "== metrics summary ==" "$2")
    if [ "$n" -eq 1 ]; then
        echo "ok: $1 prints one metrics summary"
    else
        echo "FAIL: $1 prints $n metrics summaries"
        FAILURES=$((FAILURES + 1))
    fi
}
REPRO_METRICS=1 "$CAMPAIGN" $TINY --out "$WORK/obs2.csv" --metrics-summary >/dev/null 2>"$WORK/obs2.err"
check_exit "campaign with \$REPRO_METRICS and --metrics-summary" 0 $?
summary_once "campaign with \$REPRO_METRICS and --metrics-summary" "$WORK/obs2.err"
REPRO_METRICS=1 "$ANALYZE" "$WORK/obs2.csv" --metrics-summary >/dev/null 2>"$WORK/obs3.err"
check_exit "analyze with \$REPRO_METRICS and --metrics-summary" 0 $?
summary_once "analyze with \$REPRO_METRICS and --metrics-summary" "$WORK/obs3.err"

# campaign.epochs_faulted counts the records that carry a fault flag, the
# store footer's third count. Every epoch's plan draws ping timeouts at
# this rate, but few epochs get one.
"$CAMPAIGN" --paths 4 --traces 1 --epochs 10 --transfer-s 2 --seed 5 \
    --faults ping-timeout=0.0001 --format store --out "$WORK/pt.store" \
    --metrics-summary >/dev/null 2>"$WORK/pt.err"
check_exit "store campaign with rare ping timeouts" 0 $?
COUNTED=$(awk '$1 == "counter" && $2 == "campaign.epochs_faulted" { print $3 }' "$WORK/pt.err")
IN_FOOTER=$(awk -F, '/^footer,/ { print $4 }' "$WORK/pt.store")
if [ -n "$IN_FOOTER" ] && [ "$IN_FOOTER" -gt 0 ] && [ "$IN_FOOTER" -lt 40 ] &&
    [ "$COUNTED" = "$IN_FOOTER" ]; then
    echo "ok: campaign.epochs_faulted equals the footer's faulted count ($COUNTED)"
else
    echo "FAIL: campaign.epochs_faulted ($COUNTED) differs from the footer's faulted count ($IN_FOOTER)"
    FAILURES=$((FAILURES + 1))
fi

"$ANALYZE" "$WORK/obs.csv" --trace "$WORK/engine.jsonl" >/dev/null 2>&1
check_exit "analyze with --trace" 0 $?
"$ANALYZE" --from-trace "$WORK/engine.jsonl" >"$WORK/fromtrace.out" 2>/dev/null
check_exit "analyze --from-trace round-trip" 0 $?
grep -q "re-derived from trace" "$WORK/fromtrace.out" || { echo "FAIL: --from-trace table missing"; FAILURES=$((FAILURES+1)); }
printf 'not json at all\n' > "$WORK/bad.jsonl"
"$ANALYZE" --from-trace "$WORK/bad.jsonl" >/dev/null 2>&1
check_exit "analyze malformed trace" 2 $?
"$ANALYZE" --from-trace "$WORK/engine.jsonl" "$WORK/obs.csv" >/dev/null 2>&1
check_exit "--from-trace plus dataset is a usage error" 1 $?

# --- interrupt + resume: SIGINT mid-run exits 130, --resume completes, and
# the result is byte-identical to an uninterrupted run.
"$CAMPAIGN" $TINY --epochs 30 --out "$WORK/full.csv" --faults "$FAULTS" --jobs 2 >/dev/null 2>&1
check_exit "uninterrupted reference run" 0 $?

"$CAMPAIGN" $TINY --epochs 30 --out "$WORK/resumed.csv" --faults "$FAULTS" \
    --checkpoint-every 1 --jobs 1 >/dev/null 2>&1 &
PID=$!
# Wait for the first checkpoint flush, then interrupt.
for _ in $(seq 1 200); do
    [ -f "$WORK/resumed.csv.ckpt" ] && break
    sleep 0.1
done
kill -INT "$PID" 2>/dev/null
wait "$PID"
RC=$?
if [ "$RC" -eq 130 ]; then
    echo "ok: interrupted campaign exits 130"
    [ -f "$WORK/resumed.csv.ckpt" ] || { echo "FAIL: no checkpoint after SIGINT"; FAILURES=$((FAILURES+1)); }
    [ "$(ls "$WORK"/resumed.csv*)" = "$WORK/resumed.csv.ckpt" ] || { echo "FAIL: interrupted CSV run left more than its journal"; FAILURES=$((FAILURES+1)); }
elif [ "$RC" -eq 0 ]; then
    # The tiny run can legitimately finish before the signal lands; the
    # resume path is still exercised below (resume of a complete run).
    echo "ok: campaign finished before SIGINT landed (timing)"
else
    echo "FAIL: interrupted campaign exited $RC (want 130 or 0)"
    FAILURES=$((FAILURES + 1))
fi

"$CAMPAIGN" $TINY --epochs 30 --out "$WORK/resumed.csv" --faults "$FAULTS" \
    --resume --jobs 2 >/dev/null 2>&1
check_exit "resumed campaign completes" 0 $?
cmp -s "$WORK/full.csv" "$WORK/resumed.csv"
check_exit "resumed CSV byte-identical to uninterrupted" 0 $?
[ -f "$WORK/resumed.csv.ckpt" ] && { echo "FAIL: checkpoint not removed on completion"; FAILURES=$((FAILURES+1)); }

# A malformed journal is a runtime failure naming the file and the line.
# (A kept shard journal supplies this config's header.)
"$CAMPAIGN" $TINY --out "$WORK/bad.csv" --shard 0/1 >/dev/null 2>&1
{ head -n 2 "$WORK/bad.csv.shard-0-of-1.ckpt"; echo "paths,-1"; } > "$WORK/bad.csv.ckpt"
"$CAMPAIGN" $TINY --out "$WORK/bad.csv" --resume >/dev/null 2>"$WORK/err"
check_exit "resume from a journal with paths -1" 2 $?
grep -q "bad.csv.ckpt:3:.*paths" "$WORK/err" || { echo "FAIL: journal error does not name file:line"; FAILURES=$((FAILURES+1)); }

# A journal is an unfinished store: the finished-store readers refuse it,
# name the file, point at --resume, and write nothing.
UNFINISHED="$WORK/bad.csv.shard-0-of-1.ckpt"
"$CAMPAIGN" --convert "$UNFINISHED" --out "$WORK/unf.csv" >/dev/null 2>"$WORK/err"
check_exit "--convert of an unfinished journal" 2 $?
grep -q "shard-0-of-1.ckpt.*unfinished journal.*--resume" "$WORK/err" || { echo "FAIL: --convert of a journal does not name the file and --resume"; FAILURES=$((FAILURES+1)); }
ls "$WORK"/unf.csv* >/dev/null 2>&1 && { echo "FAIL: --convert of a journal left an output file"; FAILURES=$((FAILURES+1)); }
"$ANALYZE" --from-store "$UNFINISHED" >"$WORK/unf.out" 2>"$WORK/err"
check_exit "--from-store of an unfinished journal" 2 $?
grep -q "shard-0-of-1.ckpt.*unfinished journal" "$WORK/err" || { echo "FAIL: --from-store of a journal does not name the file"; FAILURES=$((FAILURES+1)); }
[ -s "$WORK/unf.out" ] && { echo "FAIL: --from-store of a journal printed a report"; FAILURES=$((FAILURES+1)); }

# A grid past INT_MAX epochs is refused up front (exit 1, the product named)
# in both formats, before any grid-sized allocation or sweep.
for FMT in csv store; do
    timeout 20 "$CAMPAIGN" --paths 1000 --traces 1000 --epochs 3000 --format "$FMT" \
        --out "$WORK/huge.$FMT" >/dev/null 2>"$WORK/err"
    check_exit "grid over INT_MAX epochs ($FMT)" 1 $?
    grep -q "3000000000 epochs" "$WORK/err" || { echo "FAIL: oversized grid error does not name the product ($FMT)"; FAILURES=$((FAILURES+1)); }
    ls "$WORK"/huge.$FMT* >/dev/null 2>&1 && { echo "FAIL: oversized grid left output ($FMT)"; FAILURES=$((FAILURES+1)); }
done

# A CSV that cannot be written whole is a runtime failure that publishes
# nothing: under a 16-block file size limit (SIGXFSZ ignored, so the write
# fails with EFBIG) the run exits 2 and leaves neither the CSV, nor the
# staging store it is exported from, nor a temp. The staging store is the
# larger file, so it is the write that fails.
(trap '' XFSZ; ulimit -f 16
 "$CAMPAIGN" --paths 3 --traces 1 --epochs 60 --transfer-s 1.5 --jobs 2 \
     --out "$WORK/capped.csv" >/dev/null 2>"$WORK/err")
check_exit "CSV run past the file size limit" 2 $?
grep -q "record_writer: write failed on .*capped.csv.store" "$WORK/err" || { echo "FAIL: failed staging-store write not reported"; FAILURES=$((FAILURES+1)); }
ls "$WORK"/capped.csv* >/dev/null 2>&1 && { echo "FAIL: failed CSV write left a file"; FAILURES=$((FAILURES+1)); }
# A failed export (the CSV cannot be renamed onto a directory) exits 2 and
# leaves neither a CSV nor the staging store.
mkdir "$WORK/blocked.csv"
"$CAMPAIGN" $TINY --out "$WORK/blocked.csv" >/dev/null 2>"$WORK/err"
check_exit "CSV run whose export fails" 2 $?
grep -q "store_to_csv: cannot rename" "$WORK/err" || { echo "FAIL: failed export not reported"; FAILURES=$((FAILURES+1)); }
ls "$WORK"/blocked.csv.* >/dev/null 2>&1 && { echo "FAIL: failed export left a file"; FAILURES=$((FAILURES+1)); }
[ -z "$(ls -A "$WORK/blocked.csv")" ] || { echo "FAIL: failed export wrote into the directory"; FAILURES=$((FAILURES+1)); }

# --- sharding: bad specs -> 1, shard+merge reproduces the serial CSV byte
# for byte, merge of a missing shard -> 2, and a resume under a changed
# config names the differing field.
"$CAMPAIGN" $TINY --out "$WORK/s.csv" --shard "2/2" >/dev/null 2>&1
check_exit "out-of-range --shard" 1 $?
"$CAMPAIGN" $TINY --out "$WORK/s.csv" --shard "x/2" >/dev/null 2>&1
check_exit "malformed --shard" 1 $?
"$CAMPAIGN" $TINY --out "$WORK/s.csv" --merge 2 --shard 0/2 >/dev/null 2>&1
check_exit "--merge with --shard" 1 $?

"$CAMPAIGN" $TINY --out "$WORK/s.csv" --shard 0/2 >/dev/null 2>&1
check_exit "shard 0/2 run" 0 $?
[ -f "$WORK/s.csv" ] && { echo "FAIL: shard run wrote a CSV"; FAILURES=$((FAILURES+1)); }
"$CAMPAIGN" $TINY --out "$WORK/s.csv" --merge 2 >/dev/null 2>&1
check_exit "merge with a shard still missing" 2 $?
"$CAMPAIGN" $TINY --out "$WORK/s.csv" --shard 1/2 >/dev/null 2>&1
check_exit "shard 1/2 run" 0 $?
"$CAMPAIGN" $TINY --out "$WORK/s.csv" --merge 2 >/dev/null 2>&1
check_exit "merge of both shards" 0 $?
"$CAMPAIGN" $TINY --out "$WORK/serial.csv" --jobs 1 >/dev/null 2>&1
cmp -s "$WORK/serial.csv" "$WORK/s.csv"
check_exit "shard+merge CSV byte-identical to serial" 0 $?

# --- record store (--format store / --convert / --from-store): the past-RAM
# path must reproduce the CSV path byte for byte at every entry point.
"$CAMPAIGN" $TINY --out "$WORK/a.store" --format store --jobs 2 >/dev/null 2>&1
check_exit "store campaign run (jobs 2)" 0 $?
"$CAMPAIGN" --convert "$WORK/a.store" --out "$WORK/a.csv" >/dev/null 2>&1
check_exit "store -> CSV conversion" 0 $?
cmp -s "$WORK/a.csv" "$WORK/serial.csv"
check_exit "converted store byte-identical to serial CSV" 0 $?

"$CAMPAIGN" $TINY --out "$WORK/b.store" --format store --jobs 1 >/dev/null 2>&1
check_exit "store campaign run (jobs 1)" 0 $?
cmp -s "$WORK/a.store" "$WORK/b.store"
check_exit "store bytes identical across job counts" 0 $?

# Shard checkpoints merge straight into a store (a fresh pair: shard
# journal names derive from --out), byte-identical to a serial store run.
"$CAMPAIGN" $TINY --out "$WORK/m.store" --shard 0/2 >/dev/null 2>&1
"$CAMPAIGN" $TINY --out "$WORK/m.store" --shard 1/2 >/dev/null 2>&1
"$CAMPAIGN" $TINY --out "$WORK/m.store" --merge 2 --format store >/dev/null 2>&1
check_exit "merge of shards into a store" 0 $?
cmp -s "$WORK/m.store" "$WORK/b.store"
check_exit "merged store byte-identical to a serial store run" 0 $?
"$CAMPAIGN" --convert "$WORK/m.store" --out "$WORK/m.csv" >/dev/null 2>&1
cmp -s "$WORK/m.csv" "$WORK/serial.csv"
check_exit "merged store converts byte-identical to serial CSV" 0 $?

# Store runs journal and resume like CSV runs: SIGINT after the first
# journal flush, --resume at another job count, and the store bytes equal an
# uninterrupted run's.
"$CAMPAIGN" $TINY --epochs 30 --out "$WORK/full.store" --format store --faults "$FAULTS" \
    --jobs 2 >/dev/null 2>&1
check_exit "uninterrupted store reference run" 0 $?
"$CAMPAIGN" $TINY --epochs 30 --out "$WORK/resumed.store" --format store --faults "$FAULTS" \
    --checkpoint-every 1 --jobs 1 >/dev/null 2>&1 &
PID=$!
for _ in $(seq 1 200); do
    [ -f "$WORK/resumed.store.ckpt" ] && break
    sleep 0.1
done
kill -INT "$PID" 2>/dev/null
wait "$PID"
RC=$?
if [ "$RC" -eq 130 ]; then
    echo "ok: interrupted store campaign exits 130"
    [ -f "$WORK/resumed.store" ] && { echo "FAIL: interrupted store run published a store"; FAILURES=$((FAILURES+1)); }
elif [ "$RC" -eq 0 ]; then
    echo "ok: store campaign finished before SIGINT landed (timing)"
else
    echo "FAIL: interrupted store campaign exited $RC (want 130 or 0)"
    FAILURES=$((FAILURES + 1))
fi
"$CAMPAIGN" $TINY --epochs 30 --out "$WORK/resumed.store" --format store --faults "$FAULTS" \
    --resume --jobs 3 >/dev/null 2>&1
check_exit "resumed store campaign completes" 0 $?
cmp -s "$WORK/full.store" "$WORK/resumed.store"
check_exit "resumed store byte-identical to uninterrupted" 0 $?
[ -f "$WORK/resumed.store.ckpt" ] && { echo "FAIL: store journal not removed on completion"; FAILURES=$((FAILURES+1)); }

# Streamed analysis reads the store directly and must print the same report.
"$ANALYZE" "$WORK/serial.csv" >"$WORK/csv_report.out" 2>/dev/null
"$ANALYZE" --from-store "$WORK/a.store" >"$WORK/store_report.out" 2>/dev/null
check_exit "analyze --from-store" 0 $?
cmp -s "$WORK/store_report.out" "$WORK/csv_report.out"
check_exit "--from-store report byte-identical to CSV report" 0 $?

# --- one spec-list syntax in the three tools that take specs: an empty
# list is bad arguments (1); an empty item is a bad spec (2), named on
# stderr like an unknown one.
spec_list_checks() {  # tool-name flag command...
    local name=$1 flag=$2
    shift 2
    "$@" "$flag" "" >/dev/null 2>"$WORK/err"
    check_exit "$name empty $flag list" 1 $?
    for LIST in 10-MA,,NWS 10-MA, ,NWS; do
        "$@" "$flag" "$LIST" >/dev/null 2>"$WORK/err"
        check_exit "$name $flag $LIST" 2 $?
        grep -q "bad predictor spec ''" "$WORK/err" || { echo "FAIL: $name $flag $LIST does not name the empty spec"; FAILURES=$((FAILURES+1)); }
    done
    "$@" "$flag" 10-MA,bogus >/dev/null 2>"$WORK/err"
    check_exit "$name unknown spec" 2 $?
    grep -q "bad predictor spec 'bogus'" "$WORK/err" || { echo "FAIL: $name does not name the unknown spec"; FAILURES=$((FAILURES+1)); }
}
spec_list_checks analyze --predictors "$ANALYZE" --from-store "$WORK/a.store"
spec_list_checks loadgen --specs "$LOADGEN" --from-store "$WORK/a.store" --offline "$WORK/off.pred"
# (A daemon that accepted its flags would serve until killed: timeout 20.)
spec_list_checks serve --specs timeout 20 "$SERVE" --socket "$WORK/serve.sock"
[ -e "$WORK/serve.sock" ] && { echo "FAIL: serve listened despite a bad spec list"; FAILURES=$((FAILURES+1)); }

# A snapshot event that OBSERVE would refuse (p̂ = 2, an infinite that_s)
# fails --resume with exit 2, naming the line and the field, before the
# daemon listens; the summary is printed once here too.
snapshot_with() {  # phat that_s
    printf 'tcppred-serve-snapshot,v1\nspecs,fb:pftk\npaths,1\npath,p0,2\n'
    printf 'ev,0,0x1.24f8p+20,%s,0x1p-7,%s,0x1.b774p+19,0\n' "$1" "$2"
    printf 'ev,1,0x1.0c8ep+20,0x1p-6,0x1p-7,0x1.70a3d70a3d70ap-4,0x1.9f0ap+19,0\nend,2\n'
}
for CASE in "phat 0x1p+1 0x1.47ae147ae147bp-4" "that_s 0x1p-7 inf"; do
    read -r NAME PHAT THAT <<<"$CASE"
    snapshot_with "$PHAT" "$THAT" >"$WORK/bad.snap"
    REPRO_METRICS=1 timeout 20 "$SERVE" --socket "$WORK/resume.sock" --snapshot "$WORK/bad.snap" \
        --resume --metrics-summary >/dev/null 2>"$WORK/err"
    check_exit "serve --resume of a snapshot event with a bad $NAME" 2 $?
    grep -q "bad.snap:5:0: bad value for $NAME" "$WORK/err" || { echo "FAIL: refused snapshot does not name the line and $NAME"; FAILURES=$((FAILURES+1)); }
    summary_once "serve with \$REPRO_METRICS and --metrics-summary" "$WORK/err"
done
[ -e "$WORK/resume.sock" ] && { echo "FAIL: serve listened despite a refused snapshot"; FAILURES=$((FAILURES+1)); }

# The path-table stripe count and the admission bound are constants: their
# flags are unknown arguments.
for FLAG in "--shards 4" "--max-inflight 8"; do
    # shellcheck disable=SC2086  # FLAG is a flag and its value
    timeout 20 "$SERVE" --socket "$WORK/serve.sock" $FLAG >/dev/null 2>"$WORK/err"
    check_exit "serve $FLAG" 1 $?
    grep -q "unknown argument: ${FLAG%% *}" "$WORK/err" || { echo "FAIL: serve $FLAG not reported as an unknown argument"; FAILURES=$((FAILURES+1)); }
done

# Flag validation: the store path is explicit about what it refuses.
"$CAMPAIGN" $TINY --out "$WORK/x" --format bogus >/dev/null 2>&1
check_exit "bad --format" 1 $?
"$CAMPAIGN" $TINY --out "$WORK/x.store" --format store --shard 0/2 >/dev/null 2>&1
check_exit "store with --shard" 1 $?
"$CAMPAIGN" --convert "$WORK/a.store" --out "$WORK/x.csv" --resume >/dev/null 2>&1
check_exit "--convert with campaign flags" 1 $?
"$ANALYZE" --from-store "$WORK/a.store" "$WORK/serial.csv" >/dev/null 2>&1
check_exit "--from-store plus dataset is a usage error" 1 $?
"$ANALYZE" --from-store "$WORK/does-not-exist.store" >/dev/null 2>&1
check_exit "--from-store missing store" 2 $?

# A footer fault count rewritten at the same byte length keeps every offset
# valid. The reader still catches it at the end of the stream: --convert
# exits 2 and publishes nothing (the flags of the faulted epochs would be
# lost), and --from-store does not report the footer's counts.
"$CAMPAIGN" --paths 3 --traces 1 --epochs 8 --transfer-s 2 --cross-model fluid \
    --faults pathload=0.5,abort=0.3 --out "$WORK/f.store" --format store >/dev/null 2>&1
check_exit "faulted store campaign" 0 $?
awk -F, -v OFS=, '/^footer,/ { gsub(/[0-9]/, "0", $4) } { print }' \
    "$WORK/f.store" >"$WORK/zf.store"
cmp -s "$WORK/f.store" "$WORK/zf.store" && { echo "FAIL: store has no faulted epochs to hide"; FAILURES=$((FAILURES+1)); }
"$CAMPAIGN" --convert "$WORK/zf.store" --out "$WORK/zf.csv" >/dev/null 2>"$WORK/zf.err"
check_exit "--convert of a store with a tampered footer count" 2 $?
grep -q "footer counts" "$WORK/zf.err" || { echo "FAIL: tampered footer error does not name the footer"; FAILURES=$((FAILURES+1)); }
ls "$WORK"/zf.csv* >/dev/null 2>&1 && { echo "FAIL: rejected --convert left an output file"; FAILURES=$((FAILURES+1)); }
"$ANALYZE" --from-store "$WORK/zf.store" >/dev/null 2>&1
check_exit "--from-store of a store with a tampered footer count" 2 $?

# A record's p̂ rewritten to 2 at the same byte length keeps every offset
# valid. The store reader refuses the loss rate as the CSV reader does,
# naming the file, the line and the field: --from-store exits 2 without a
# report and --convert exits 2 and publishes nothing.
awk -F, -v OFS=, '!done && /^rec,/ && length($6) >= 8 {
        t = "0x1."; for (i = length($6); i > 7; i--) t = t "0"; $6 = t "p+1"; done = 1 }
    { print }' "$WORK/a.store" >"$WORK/lossy.store"
if cmp -s "$WORK/a.store" "$WORK/lossy.store" ||
    [ "$(wc -c <"$WORK/a.store")" -ne "$(wc -c <"$WORK/lossy.store")" ]; then
    echo "FAIL: no p̂ rewritten at the same length"
    FAILURES=$((FAILURES + 1))
fi
"$ANALYZE" --from-store "$WORK/lossy.store" >"$WORK/lossy.out" 2>"$WORK/err"
check_exit "--from-store of a store with p̂ = 2" 2 $?
grep -q "lossy.store:[0-9]*:0: bad value for phat: .*loss rate must be in \[0,1\]" "$WORK/err" || { echo "FAIL: p̂ = 2 error does not name the file, line and field"; FAILURES=$((FAILURES+1)); }
[ -s "$WORK/lossy.out" ] && { echo "FAIL: --from-store of p̂ = 2 printed a report"; FAILURES=$((FAILURES+1)); }
"$CAMPAIGN" --convert "$WORK/lossy.store" --out "$WORK/lossy.csv" >/dev/null 2>&1
check_exit "--convert of a store with p̂ = 2" 2 $?
ls "$WORK"/lossy.csv* >/dev/null 2>&1 && { echo "FAIL: --convert of p̂ = 2 left an output file"; FAILURES=$((FAILURES+1)); }

# Shards of different cross-traffic models never merge: the fingerprint
# carries the model, and the error names the field.
"$CAMPAIGN" $TINY --out "$WORK/mix.csv" --shard 0/2 --cross-model packet >/dev/null 2>&1
check_exit "packet-model shard 0/2" 0 $?
"$CAMPAIGN" $TINY --out "$WORK/mix.csv" --shard 1/2 --cross-model fluid >/dev/null 2>&1
check_exit "fluid-model shard 1/2" 0 $?
"$CAMPAIGN" $TINY --out "$WORK/mix.csv" --merge 2 >/dev/null 2>"$WORK/mix.err"
check_exit "merge of shards from two cross-traffic models" 2 $?
grep -q "epoch.cross: store=fluid requested=packet" "$WORK/mix.err" || { echo "FAIL: mixed-model merge error does not name epoch.cross"; FAILURES=$((FAILURES+1)); }
{ [ -e "$WORK/mix.csv" ] || [ -e "$WORK/mix.csv.store" ]; } && { echo "FAIL: refused merge left output"; FAILURES=$((FAILURES+1)); }

# Resume under a changed seed: refused, and the error names the field.
"$CAMPAIGN" $TINY --out "$WORK/mm.csv" --shard 0/2 >/dev/null 2>&1
"$CAMPAIGN" $TINY --out "$WORK/mm.csv" --shard 0/2 --seed 99 --resume >/dev/null 2>"$WORK/mm.err"
check_exit "shard resume under changed seed" 2 $?
grep -q "seed: store=20040501 requested=99" "$WORK/mm.err" || { echo "FAIL: mismatch error does not name the seed field"; FAILURES=$((FAILURES+1)); }

# A journal of the previous fingerprint version (v3, written by an older
# build) is refused on --resume, and the error names the version slot.
"$CAMPAIGN" $TINY --out "$WORK/old.csv" --shard 0/1 >/dev/null 2>&1
V3="v3|3|2|1|3|20040501|0|off|0x1p+1|0x1.8p+0|0x1.eb851eb851eb8p-7|1048576|20480|1|1|400"
V3+="|0x1.eb851eb851eb8p-7|0x1.4cccccccccccdp+0|0x1.ep+7|packet"
sed "2s/.*/fingerprint,$V3/" "$WORK/old.csv.shard-0-of-1.ckpt" >"$WORK/old.csv.ckpt"
"$CAMPAIGN" $TINY --out "$WORK/old.csv" --resume >/dev/null 2>"$WORK/old.err"
check_exit "resume of a v3 journal" 2 $?
grep -q "version: store=v3 requested=v4" "$WORK/old.err" || { echo "FAIL: v3 journal refusal does not name the version slot"; FAILURES=$((FAILURES+1)); }
[ -e "$WORK/old.csv" ] && { echo "FAIL: refused resume wrote a CSV"; FAILURES=$((FAILURES+1)); }

if [ "$FAILURES" -ne 0 ]; then
    echo "$FAILURES CLI contract check(s) failed"
    exit 1
fi
echo "all CLI contract checks passed"

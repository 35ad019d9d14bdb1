#!/usr/bin/env bash
# Bench smoke gate: run every figure and ablation bench at tiny scale and
# fail on the first non-zero exit. The benches share the cached tiny
# campaigns (record stores under data/, read under their campaign
# fingerprint), so after the first one pays the generation cost the rest
# read the store — the whole sweep stays CI-sized.
#
# Usage: tools/bench_smoke.sh [bench-dir]   (default: build/bench)
# Runs from the repository root so every bench sees the same data/ cache.
set -u

SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
BIN_DIR="${1:-$SRC_DIR/build/bench}"

if [ ! -d "$BIN_DIR" ]; then
    echo "bench_smoke.sh: bench directory not found: $BIN_DIR" >&2
    exit 1
fi

cd "$SRC_DIR"
export REPRO_SCALE=tiny
# Each bench's stderr, shown only when it fails; private to this run.
ERR_DIR=$(mktemp -d)
trap 'rm -rf "$ERR_DIR"' EXIT

ran=0
failed=0
for bench in "$BIN_DIR"/fig* "$BIN_DIR"/ablation_*; do
    [ -x "$bench" ] || continue
    name="$(basename "$bench")"
    if "$bench" >/dev/null 2>"$ERR_DIR/$name.err"; then
        echo "ok: $name"
    else
        rc=$?
        echo "FAIL: $name (exit $rc)"
        sed 's/^/    /' "$ERR_DIR/$name.err"
        failed=$((failed + 1))
    fi
    ran=$((ran + 1))
done

if [ "$ran" -eq 0 ]; then
    echo "bench_smoke.sh: no fig*/ablation_* benches found in $BIN_DIR" >&2
    exit 1
fi
if [ "$failed" -ne 0 ]; then
    echo "$failed of $ran benches failed"
    exit 1
fi
echo "all $ran benches passed at REPRO_SCALE=tiny"

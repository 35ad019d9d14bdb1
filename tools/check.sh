#!/usr/bin/env sh
# One-shot local gate: configure + build (warnings are errors), the repo
# linter (tcppred_lint), clang-tidy (when installed), and the full test
# suite at tiny scale. This mirrors what CI enforces; run it before pushing.
#
# Usage: tools/check.sh [build-dir]   (default: build-check)
set -eu

BUILD_DIR="${1:-build-check}"
SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"

# compile_commands.json export is unconditional (top-level CMakeLists), so
# both the tidy and lint targets below see accurate per-TU flags.
cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
    -DCMAKE_BUILD_TYPE=Release \
    -DREPRO_CHECKS=ON
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 2)"
cmake --build "$BUILD_DIR" --target lint
cmake --build "$BUILD_DIR" --target tidy
REPRO_SCALE=tiny ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc 2>/dev/null || echo 2)"
"$SRC_DIR/tools/ci_resume_check.sh" "$BUILD_DIR/tools/tcppred_campaign"
"$SRC_DIR/tools/ci_memcap_check.sh" \
    "$BUILD_DIR/tools/tcppred_campaign" "$BUILD_DIR/tools/tcppred_analyze"
"$SRC_DIR/tools/ci_serve_check.sh" "$BUILD_DIR/tools/tcppred_campaign" \
    "$BUILD_DIR/tools/tcppred_serve" "$BUILD_DIR/tools/tcppred_loadgen"
"$SRC_DIR/tools/bench_smoke.sh" "$BUILD_DIR/bench"
"$SRC_DIR/tools/trace_smoke.sh" \
    "$BUILD_DIR/tools/tcppred_campaign" "$BUILD_DIR/tools/tcppred_analyze"

echo "check.sh: all gates passed"

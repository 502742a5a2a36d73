#!/usr/bin/env bash
# Build every bench binary in a Release configuration, run them, and
# collect the machine-readable BENCH_*.json artifacts into
# bench-results/. Optionally gate the artifacts against the
# checked-in goldens, or refresh the goldens intentionally.
#
# Usage:
#   scripts/bench.sh                  # full sweeps, artifacts only
#   scripts/bench.sh --quick          # reduced sweeps (the CI tier)
#   scripts/bench.sh --quick --golden-diff
#                                     # + fail on drift vs bench/goldens
#   scripts/bench.sh --quick --update-goldens
#                                     # refresh bench/goldens (commit the
#                                     # diff with a justification)
#   scripts/bench.sh --only kernels --only fig19_throughput ...
#                                     # restrict to named benches
#   scripts/bench.sh --trajectory     # append timing metrics to
#                                     # bench-results/trajectory.jsonl
#                                     # and print deltas vs last run
#   scripts/bench.sh --compare-baseline
#                                     # print the simd-vs-scalar and
#                                     # other *_speedup columns
#                                     # from the BENCH_*.json
#                                     # just produced (each binary
#                                     # measures both paths in one
#                                     # run, so no second sweep)
#   scripts/bench.sh --threads 4      # pin the thread pool (passed
#                                     # through to every binary)
#
# Goldens are captured from the --quick tier with a portable build
# (MARCH= scripts/bench.sh --quick --update-goldens) so CI machines
# reproduce them; per-metric tolerances absorb FP-contraction noise.
#
# Knobs:
#   BUILD_DIR   benchmark build tree   (default build-release)
#   OUT_DIR     artifact directory     (default bench-results)
#   JOBS        parallel build jobs    (default nproc)
#   MARCH       arch flag              (default -march=native; set
#                                       empty for a portable binary)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-release}
OUT_DIR=${OUT_DIR:-bench-results}
JOBS=${JOBS:-$(nproc)}
MARCH=${MARCH--march=native}

QUICK=""
GOLDEN_DIFF=0
UPDATE_GOLDENS=0
TRAJECTORY=0
COMPARE_BASELINE=0
THREADS=()
ONLY=()
while [ $# -gt 0 ]; do
    case "$1" in
    --quick) QUICK="--quick" ;;
    --golden-diff) GOLDEN_DIFF=1 ;;
    --update-goldens) UPDATE_GOLDENS=1 ;;
    --trajectory) TRAJECTORY=1 ;;
    --compare-baseline) COMPARE_BASELINE=1 ;;
    --threads)
        [ $# -ge 2 ] || { echo "--threads requires a count" >&2; exit 2; }
        THREADS=(--threads "$2"); shift ;;
    --only)
        [ $# -ge 2 ] || { echo "--only requires a bench name" >&2; exit 2; }
        ONLY+=("$2"); shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
    shift
done

cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-O3 ${MARCH}" \
    -DSOFA_BUILD_TESTS=OFF \
    -DSOFA_BUILD_EXAMPLES=OFF
if [ ${#ONLY[@]} -gt 0 ]; then
    # Build just the requested binaries (e.g. CI's --only kernels).
    TARGETS=()
    for name in "${ONLY[@]}"; do
        TARGETS+=(--target "bench_$name")
    done
    cmake --build "$BUILD_DIR" -j "$JOBS" "${TARGETS[@]}"
    BENCHES=("${ONLY[@]}")
else
    cmake --build "$BUILD_DIR" -j "$JOBS"
    BENCHES=()
    for bin in "$BUILD_DIR"/bench/bench_*; do
        [ -x "$bin" ] && BENCHES+=("$(basename "$bin" | sed 's/^bench_//')")
    done
fi

mkdir -p "$OUT_DIR"
for name in "${BENCHES[@]}"; do
    bin="$BUILD_DIR/bench/bench_$name"
    [ -x "$bin" ] || { echo "no such bench binary: $bin" >&2; exit 2; }
    echo "=== bench_$name $QUICK ==="
    # shellcheck disable=SC2086
    "$bin" $QUICK ${THREADS[@]+"${THREADS[@]}"} \
        --json-out "$OUT_DIR/BENCH_$name.json"
    echo
done

# First --trajectory run on a fresh checkout/runner: seed the log
# from the committed baseline so the very first append already prints
# deltas vs a known-good revision instead of an empty diff.
if [ "$TRAJECTORY" = 1 ] && [ ! -f "$OUT_DIR/trajectory.jsonl" ] \
    && [ -f bench/trajectory/baseline.jsonl ]; then
    cp bench/trajectory/baseline.jsonl "$OUT_DIR/trajectory.jsonl"
    echo "seeded $OUT_DIR/trajectory.jsonl from bench/trajectory/baseline.jsonl"
fi

TRAJ_ARGS=()
[ "$TRAJECTORY" = 1 ] && TRAJ_ARGS+=(--append)
[ "$COMPARE_BASELINE" = 1 ] && TRAJ_ARGS+=(--compare-baseline)
if [ ${#TRAJ_ARGS[@]} -gt 0 ]; then
    python3 scripts/trajectory_diff.py --results "$OUT_DIR" \
        "${TRAJ_ARGS[@]}"
fi

if [ "$UPDATE_GOLDENS" = 1 ]; then
    mkdir -p bench/goldens
    for name in "${BENCHES[@]}"; do
        cp "$OUT_DIR/BENCH_$name.json" bench/goldens/
    done
    echo "refreshed bench/goldens/ from $OUT_DIR (quick=${QUICK:-no})"
fi

if [ "$GOLDEN_DIFF" = 1 ]; then
    python3 scripts/golden_diff.py --results "$OUT_DIR" "${BENCHES[@]}"
fi

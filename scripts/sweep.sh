#!/usr/bin/env bash
# Run the full paper experiment grid (Figs. 7-11 simulation points)
# through the parallel sweep engine, writing structured JSON results.
#
# Usage: scripts/sweep.sh [--jobs N] [--json-dir DIR] [--quick]
#                         [--build-dir DIR]
#
#   --jobs N       worker threads (default: all cores)
#   --json-dir DIR where run-<hash>.json + manifest land
#                  (default: results/)
#   --quick        spot-check subset of the grid
#   --build-dir D  CMake build tree (default: build)
#
# Extra flags (e.g. --no-cache, --quiet, --cache-dir DIR for the
# disk-backed result cache, which concurrent sweeps may share) are
# passed through to sweep_grid unchanged.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD=build
JSON_DIR=results
ARGS=()
while [ $# -gt 0 ]; do
    case "$1" in
        --build-dir) BUILD=$2; shift 2 ;;
        --build-dir=*) BUILD=${1#--build-dir=}; shift ;;
        --json-dir) JSON_DIR=$2; shift 2 ;;
        --json-dir=*) JSON_DIR=${1#--json-dir=}; shift ;;
        *) ARGS+=("$1"); shift ;;
    esac
done

if [ ! -x "$BUILD/bench/sweep_grid" ]; then
    cmake -B "$BUILD" -G Ninja
    cmake --build "$BUILD" --target sweep_grid
fi

mkdir -p "$JSON_DIR"
exec "$BUILD/bench/sweep_grid" --json-dir "$JSON_DIR" ${ARGS[@]+"${ARGS[@]}"}

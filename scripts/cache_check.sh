#!/usr/bin/env bash
# Gate the shared disk cache: concurrent sweeps on one --cache-dir
# must simulate each point once between them, and change no artefact.
#
#  1. A --no-cache run of the quick grid is the reference; its
#     run-*.json files (one per unique request) give the unique count.
#  2. Two clients run the same quick grid at the same time on a fresh
#     cache directory. Their executed counts (from each manifest's
#     profile block) must sum to the unique count.
#  3. A third client on the same directory must execute nothing.
#  4. Every run-*.json of every client must equal the reference's
#     byte for byte, and each client must have written all of them.
#
# Usage: scripts/cache_check.sh [--build-dir DIR] [--jobs N]
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD=build
JOBS=${JOBS:-2}
while [ $# -gt 0 ]; do
    case "$1" in
        --build-dir) BUILD=$2; shift 2 ;;
        --build-dir=*) BUILD=${1#--build-dir=}; shift ;;
        --jobs) JOBS=$2; shift 2 ;;
        --jobs=*) JOBS=${1#--jobs=}; shift ;;
        *) echo "cache_check.sh: unknown option '$1'" >&2; exit 2 ;;
    esac
done

if [ ! -x "$BUILD/bench/sweep_grid" ]; then
    cmake -B "$BUILD" -G Ninja
    cmake --build "$BUILD" --target sweep_grid
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

grid() {
    "$BUILD/bench/sweep_grid" --quick --quiet --jobs "$JOBS" "$@" \
        > /dev/null
}

# executed DIR: fresh simulations recorded in DIR's manifest.
executed() {
    python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["profile"]["executed"])' \
        "$1/sweep_grid.manifest.json"
}

echo "cache_check: [1/4] reference run without caching"
grid --no-cache --json-dir "$WORK/ref"
unique=$(find "$WORK/ref" -name 'run-*.json' | wc -l)
[ "$unique" -gt 0 ] || { echo "cache_check: FAIL: no results"; exit 1; }

echo "cache_check: [2/4] two concurrent clients on one cache dir"
grid --cache-dir "$WORK/cache" --json-dir "$WORK/a" &
pid_a=$!
grid --cache-dir "$WORK/cache" --json-dir "$WORK/b" &
pid_b=$!
wait "$pid_a"
wait "$pid_b"
exec_a=$(executed "$WORK/a")
exec_b=$(executed "$WORK/b")
echo "cache_check: executed $exec_a + $exec_b, unique $unique"
[ $((exec_a + exec_b)) -eq "$unique" ] || {
    echo "cache_check: FAIL: the clients executed $((exec_a + exec_b))" \
         "simulations for $unique unique points"
    exit 1
}

echo "cache_check: [3/4] a third client is served from the cache"
grid --cache-dir "$WORK/cache" --json-dir "$WORK/c"
exec_c=$(executed "$WORK/c")
[ "$exec_c" -eq 0 ] || {
    echo "cache_check: FAIL: the third client executed $exec_c"
    exit 1
}

echo "cache_check: [4/4] run-*.json byte identity"
for client in a b c; do
    n=$(find "$WORK/$client" -name 'run-*.json' | wc -l)
    [ "$n" -eq "$unique" ] || {
        echo "cache_check: FAIL: client $client wrote $n of $unique"
        exit 1
    }
    for f in "$WORK"/ref/run-*.json; do
        cmp -s "$f" "$WORK/$client/$(basename "$f")" || {
            echo "cache_check: FAIL: $(basename "$f") differs" \
                 "for client $client"
            exit 1
        }
    done
done
echo "cache_check: PASS"

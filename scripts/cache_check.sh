#!/usr/bin/env bash
# Gate the shared disk cache: concurrent sweeps on one --cache-dir
# must simulate each point once between them, change no artefact, and
# never serve a result simulated on a since-edited topology file.
#
#  1. A --no-cache run of the quick grid is the reference; its
#     run-*.json files (one per unique request) give the unique count.
#  2. Two clients run the same quick grid at the same time on a fresh
#     cache directory. Their executed counts (from each manifest's
#     profile block) must sum to the unique count.
#  3. A third client on the same directory must execute nothing.
#  4. Every run-*.json of every client must equal the reference's
#     byte for byte, and each client must have written all of them.
#  5. A client runs on a copied --topology file, the file is edited in
#     place (the memory controller's latency), and the next client on
#     the same cache directory must simulate again: it executes more
#     than 0 points, and its run-*.json equal a --no-cache run's.
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

echo "cache_check: [1/5] reference run without caching"
grid --no-cache --json-dir "$WORK/ref"
unique=$(find "$WORK/ref" -name 'run-*.json' | wc -l)
[ "$unique" -gt 0 ] || { echo "cache_check: FAIL: no results"; exit 1; }

echo "cache_check: [2/5] two concurrent clients on one cache dir"
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

echo "cache_check: [3/5] a third client is served from the cache"
grid --cache-dir "$WORK/cache" --json-dir "$WORK/c"
exec_c=$(executed "$WORK/c")
[ "$exec_c" -eq 0 ] || {
    echo "cache_check: FAIL: the third client executed $exec_c"
    exit 1
}

echo "cache_check: [4/5] run-*.json byte identity"
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

echo "cache_check: [5/5] an edited --topology file is simulated again"
topo="$WORK/topology.json"
cp examples/topologies/ccpu+caccel.json "$topo"
grid --topology "$topo" --cache-dir "$WORK/cache" --json-dir "$WORK/t0"
python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
for node in doc["nodes"]:
    if node["kind"] == "memctrl":
        node["params"]["latency"] = 200
json.dump(doc, open(sys.argv[1], "w"), indent=2)' "$topo"
grid --topology "$topo" --cache-dir "$WORK/cache" --json-dir "$WORK/t1"
grid --topology "$topo" --no-cache --json-dir "$WORK/tref"
exec_t=$(executed "$WORK/t1")
echo "cache_check: executed $exec_t after the edit"
[ "$exec_t" -gt 0 ] || {
    echo "cache_check: FAIL: the edited topology was served from the" \
         "cache"
    exit 1
}
for f in "$WORK"/tref/run-*.json; do
    cmp -s "$f" "$WORK/t1/$(basename "$f")" || {
        echo "cache_check: FAIL: $(basename "$f") differs from the" \
             "--no-cache run on the edited topology"
        exit 1
    }
done
echo "cache_check: PASS"

#!/usr/bin/env python3
"""The repository benchmark: build capbench, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-grid|scale-tree|cap-churn \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --update-reference

The first form configures and builds perfbench/ (the simulator library
plus capbench) under $CARGO_TARGET_DIR or .bench_build, runs capbench,
checks every simulated result and prints each metric with its unit. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced one-worker run with --trace 1.

--update-reference rewrites perfbench/reference.json from the current
program at the default seed. Do that only for a change meant to alter
simulated results, and say so in its description.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402  (the module beside this script)

WORKLOADS = ("paper-grid", "scale-tree", "cap-churn")
DEFAULT_SEED = 1
REFERENCE = os.path.join(HERE, "reference.json")
PAPER_OVERHEAD_PCT = 1.4
BUILD_JOBS = "4"
# capbench itself must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    """Configure once, then bring capbench up to date; returns its path."""
    bdir = build_dir()
    if not any(os.path.exists(os.path.join(bdir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", bdir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "capbench",
                    "-j", BUILD_JOBS], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "capbench")


def run_capbench(binary, workload, seed, seconds, trace):
    """Run capbench once and return its document."""
    tag = "%s-s%d-t%d" % (workload, seed, trace)
    work = os.path.join(build_dir(), "runs", tag)
    out = work + ".json"
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--dir", work, "--out", out]
    subprocess.run(cmd, check=True, stdout=sys.stderr,
                   timeout=RUN_TIMEOUT_S)
    with open(out) as f:
        return json.load(f), out


def load_references(workload):
    with open(REFERENCE) as f:
        return {k: tuple(v) for k, v in json.load(f)[workload].items()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(doc, keys, checks):
    """End-to-end metrics of an untraced run."""
    passes = doc["passes"]
    wall = sum(p["wallSeconds"] for p in passes)
    outcomes = [o for p in passes for o in p["outcomes"]]
    fresh = [o for o in outcomes if not o["cacheHit"]]
    for p in passes:
        if p["executed"] != p["expectedExecuted"]:
            checks.append("pass executed %d simulations, expected %d"
                          % (p["executed"], p["expectedExecuted"]))

    # Simulated overhead from the first pass; later passes repeat it.
    by_key = {keys[o["point"]]: o for o in passes[0]["outcomes"]}
    pairs = [(by_key[pt["key"]]["totalCycles"],
              by_key[pt["twin"]]["totalCycles"])
             for pt in doc["points"] if pt["twin"]]
    point_ms = [o["wallMillis"] for o in fresh]

    # Every pass runs the same points, so per-pass rates are comparable;
    # their median shrugs off a pass the shared host slowed down.
    metrics = {
        "points_per_s": metric(
            stats.median([len(p["outcomes"]) / p["wallSeconds"]
                          for p in passes]), "1/s"),
        "beats_per_s": metric(
            stats.median([sum(o["dmaBeats"] for o in p["outcomes"]
                              if not o["cacheHit"]) / p["wallSeconds"]
                          for p in passes]), "beats/s"),
        "point_ms_p50": metric(stats.median(point_ms), "ms"),
        "setup_s": metric(stats.median(doc["setupSeconds"]), "s"),
        "peak_rss_mb": metric(doc["peakRssKb"] / 1024.0, "MB"),
        "sim_overhead_pct": metric(stats.overhead_pct(pairs), "%"),
    }
    lines = ["passes                 %d (%d points, %d simulated, %.3f s)"
             % (len(passes), len(outcomes), len(fresh), wall)]
    tail = stats.tail_percentile(point_ms)
    if tail:
        lines.append("point_ms_p%g           %.4f ms (%d samples)"
                     % (tail[0], tail[1], len(point_ms)))
    else:
        lines.append("point_ms tail          none: %d samples leave fewer "
                     "than ten beyond p90" % len(point_ms))
    lines.append("sim_overhead_pct       simulated; the paper reports "
                 "%.1f%% for the Fig. 8 grid" % PAPER_OVERHEAD_PCT)
    return metrics, outcomes, lines


def mean(values):
    return sum(values) / len(values) if values else 0.0


def per_layer(doc, checks):
    """Per-layer metrics of a traced run, with its books checked."""
    spans = doc["spans"]
    traced = [t for t in doc["tracedPoints"] if not t["cacheHit"]]
    caps = {i: pt["capCacheEntries"] for i, pt in enumerate(doc["points"])}
    ms = 1e-6

    layer_ns = {}      # layer -> per-point self ns, points it ran on
    point_wall_ns = []
    residual_ns = []
    for t in traced:
        root = spans[t["rootSpan"]]
        children = [s for s in spans if s["parent"] == t["rootSpan"]]
        domains = {d: v["selfNanos"] for d, v in t["domains"].items()}
        try:
            layers, residual = stats.layer_books(
                root, children, domains, t["profileWallNanos"])
        except ValueError as e:
            checks.append("point %d: books do not close: %s"
                          % (t["point"], e))
            continue
        point_wall_ns.append(root["endNs"] - root["startNs"])
        residual_ns.append(residual)
        for name, ns in layers.items():
            # A profile domain counts only on points that entered it;
            # spans and the "other" remainder count everywhere.
            entered = t["domains"].get(name, {"calls": 1})["calls"]
            if entered or name == "other":
                layer_ns.setdefault(name, []).append(ns)

    def layer_ms(name):
        return mean(layer_ns.get(name, [])) * ms

    accel = [t for t in traced if not t["cpuOnly"]]
    beats = sum(t["dmaBeats"] for t in accel)
    cached = [t for t in accel if caps[t["point"]] > 0]
    hits = sum(t["flight"]["flights.cacheHits"] for t in cached)
    lookups = hits + sum(t["flight"]["flights.cacheMisses"] for t in cached)
    flights = sum(t["flight"].get("flights.endToEnd.samples", 0)
                  for t in accel)

    def flight_mean(path):
        total = sum(t["flight"].get(path, 0) for t in accel)
        return total / flights if flights else 0.0

    def domain_calls(name):
        return sum(t["domains"].get(name, {}).get("calls", 0) for t in accel)

    profile_wall = sum(t["profileWallNanos"] for t in traced)
    untraced_ms = sum(t["wallMillis"] for t in traced)
    execute_ms = sum(spans[t["executeSpan"]]["endNs"] -
                     spans[t["executeSpan"]]["startNs"]
                     for t in traced) * ms
    cpu_points = [t for t in traced if t["cpuOnly"]]

    m = {
        "harness.cache_hits": metric(
            sum(1 for t in doc["tracedPoints"] if t["cacheHit"]), "count"),
        "harness.overhead_ms": metric(
            mean([t["batchMillis"] - t["wallMillis"] for t in traced]),
            "ms"),
        "system.elaborate_ms": metric(layer_ms("system.elaborate"), "ms"),
        "mem.construct_ms": metric(layer_ms("mem.construct"), "ms"),
        "mem.minor_faults": metric(
            mean([t["minorFaults"] for t in traced]), "count"),
        "mem.sys_ms": metric(mean([t["sysMs"] for t in traced]), "ms"),
        "mem.xbar_ms": metric(layer_ms("xbar"), "ms"),
        "mem.xbar_stall_cycles": metric(
            mean([t["xbarStallCycles"] for t in accel]), "cycles"),
        "mem.memctrl_ms": metric(layer_ms("mem"), "ms"),
        "workloads.functional_ms": metric(layer_ms("workload"), "ms"),
        "cpu.point_ms": metric(
            mean([(spans[t["executeSpan"]]["endNs"] -
                   spans[t["executeSpan"]]["startNs"]) * ms
                  for t in cpu_points]), "ms"),
        "sim.events_per_beat": metric(
            domain_calls("sim") / beats if beats else 0.0, "count"),
        "sim.self_ms": metric(layer_ms("sim"), "ms"),
        "accel.replay_ms": metric(layer_ms("replay"), "ms"),
        "accel.ticks_per_beat": metric(
            domain_calls("replay") / beats if beats else 0.0, "count"),
        "capchecker.check_ms": metric(layer_ms("capcheck"), "ms"),
        "capchecker.cache_hit_ratio": metric(
            hits / lookups if lookups else 0.0, "ratio"),
        "capchecker.peak_entries": metric(
            max([t["peakTableEntries"] for t in traced] or [0]), "count"),
        "protect.stall_cycles": metric(
            mean([t["checkStallCycles"] for t in accel]), "cycles"),
        "driver.alloc_cycles": metric(
            mean([t["driverAllocCycles"] for t in accel]), "cycles"),
        "flight.e2e_mean_cycles": metric(
            flight_mean("flights.endToEnd.sum"), "cycles"),
        "flight.xbar_wait_mean_cycles": metric(
            flight_mean("flights.hops.xbarWait.sum"), "cycles"),
        "flight.check_mean_cycles": metric(
            flight_mean("flights.hops.check.sum"), "cycles"),
        "flight.mem_mean_cycles": metric(
            flight_mean("flights.hops.mem.sum"), "cycles"),
        "obs.trace_overhead_x": metric(
            execute_ms / untraced_ms if untraced_ms else 0.0, "x"),
        "prof.other_share": metric(
            sum(t["domains"].get("other", {}).get("selfNanos", 0)
                for t in traced) / profile_wall if profile_wall else 0.0,
            "ratio"),
    }

    total_wall = sum(point_wall_ns)
    lines = ["traced points          %d simulated, %d cache hits, "
             "%.3f s of point spans"
             % (len(traced), m["harness.cache_hits"]["value"],
                total_wall * 1e-9)]
    if total_wall:
        for name in sorted(layer_ns):
            lines.append("  share %-16s %6.2f%% of traced point wall"
                         % (name, 100.0 * sum(layer_ns[name]) / total_wall))
        lines.append("  share %-16s %6.2f%% of traced point wall"
                     % ("residual", 100.0 * sum(residual_ns) / total_wall))
    untraced = [t["wallMillis"] for t in traced]
    if untraced:
        lines.append("  mem.construct_ms / untraced point p50 = %.4f"
                     % (m["mem.construct_ms"]["value"]
                        / stats.median(untraced)))
    return m, doc["tracedPoints"], lines


def run(args):
    binary = build()
    doc, path = run_capbench(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    keys = [pt["key"] for pt in doc["points"]]
    checks = []
    if args.trace:
        metrics, outcomes, lines = per_layer(doc, checks)
        lines.append("trace                  %s" % path)
    else:
        metrics, outcomes, lines = end_to_end(doc, keys, checks)

    refs = load_references(args.workload) if doc["defaultSeed"] else None
    attempted, failed, reasons = stats.count_failures(
        outcomes, [keys[o["point"]] for o in outcomes], refs)
    correct = failed == 0 and not checks

    print("workload %s seed %d (%s; reference check %s)"
          % (args.workload, args.seed,
             "traced, 1 worker" if args.trace else
             "untraced, %d workers" % doc["jobs"],
             "on" if refs is not None else "off: not the default seed"))
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print("%-28s %.6g %s" % (name, m["value"], m["unit"]))
    print("failed_frac                  %.6g (%d of %d points)"
          % (failed / attempted, failed, attempted))
    for reason in reasons + checks:
        print("FAIL " + reason)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def update_reference():
    binary = build()
    refs = {}
    for workload in WORKLOADS:
        doc, _ = run_capbench(binary, workload, DEFAULT_SEED, 1, 0)
        first = doc["passes"][0]["outcomes"]
        refs[workload] = {
            doc["points"][o["point"]]["key"]:
                [o[f] for f in stats.RESULT_FIELDS] for o in first}
    with open(REFERENCE, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + REFERENCE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args()
    if args.update_reference:
        update_reference()
        return
    if (args.workload is None or args.seed is None or args.seed < 0
            or args.seconds is None or args.seconds < 1
            or args.trace is None):
        parser.error("--workload, --seed >= 0, --seconds >= 1 and "
                     "--trace are required")
    run(args)


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)

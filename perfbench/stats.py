"""Statistics the benchmark reports, kept free of I/O so they can be tested.

Every function takes plain lists and numbers; run.py feeds them the raw
samples capbench writes.
"""

import math

# Tail percentiles tried by tail_percentile, highest first (the median
# is reported on its own).
TAIL_CANDIDATES = (99.9, 99.0, 90.0)


def median(values):
    """Median of a non-empty sequence (mean of the middle two if even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, pct):
    """Linear-interpolated percentile, pct in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile out of range: %r" % pct)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values, min_beyond=10, candidates=TAIL_CANDIDATES):
    """The highest candidate percentile with at least min_beyond samples
    strictly above it, as (pct, value); None when no candidate has."""
    for pct in sorted(candidates, reverse=True):
        value = percentile(values, pct)
        if sum(1 for v in values if v > value) >= min_beyond:
            return pct, value
    return None


def geomean(values):
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean of a non-positive value")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def overhead_pct(pairs):
    """Fig. 8 overhead: geomean of protected/unprotected cycle ratios,
    minus one, in percent. pairs holds (protected, unprotected)."""
    return 100.0 * (geomean([p / u for p, u in pairs]) - 1.0)


RESULT_FIELDS = ("totalCycles", "dmaBeats", "exceptions",
                 "peakTableEntries")


def outcome_failures(outcome, reference):
    """Reasons one simulated outcome fails; empty when it passes.

    Every benchmark point is a legitimate program, so a functional
    mismatch or any capability exception is a failure. When reference
    is not None (the default seed) the simulated result must also equal
    it field by field.
    """
    reasons = []
    if not outcome["correct"]:
        reasons.append("functional check failed")
    if outcome["exceptions"]:
        reasons.append("%d capability exception(s)" % outcome["exceptions"])
    if reference is not None:
        got = [outcome[f] for f in RESULT_FIELDS]
        if got != list(reference):
            reasons.append("result %s != reference %s" % (got, reference))
    return reasons


def count_failures(outcomes, keys, references):
    """(attempted, failed, first_reasons) over outcomes.

    keys[i] names outcome i's point. references maps keys to their
    committed results, or is None when they do not apply (other seeds).
    A key missing from references fails its outcome.
    """
    failed = 0
    first = []
    for outcome, key in zip(outcomes, keys):
        if references is None:
            ref = None
        else:
            ref = references.get(key, ("missing from reference",))
        reasons = outcome_failures(outcome, ref)
        if reasons:
            failed += 1
            if len(first) < 5:
                first.append("%s: %s" % (key, "; ".join(reasons)))
    return len(outcomes), failed, first


def layer_books(root, children, domains, profile_wall_ns,
                profiled_child="harness.execute"):
    """Split one traced point's wall time into layer self times.

    root and children are spans ({"name", "startNs", "endNs"}); the
    child named profiled_child is further split into the profile's
    domain self times (domains maps domain -> self ns), which sum to
    profile_wall_ns. Returns (layers, residual_ns): layers maps layer
    names to self ns; the residual is the root's own time plus the part
    of the profiled child outside its profile window. The books close
    when the layers plus the residual sum to the root's wall time.
    Raises ValueError when spans are not nested or the profile does not
    fit its span.
    """
    wall = root["endNs"] - root["startNs"]
    layers = {}
    residual = wall
    last_end = root["startNs"]
    for child in sorted(children, key=lambda s: s["startNs"]):
        if child["startNs"] < last_end or child["endNs"] > root["endNs"]:
            raise ValueError("span %s is not nested in its point"
                             % child["name"])
        last_end = child["endNs"]
        duration = child["endNs"] - child["startNs"]
        residual -= duration
        if child["name"] != profiled_child:
            layers[child["name"]] = layers.get(child["name"], 0) + duration
            continue
        if sum(domains.values()) != profile_wall_ns:
            raise ValueError("profile domains do not sum to its wall")
        if profile_wall_ns > duration:
            raise ValueError("profile is longer than its span")
        residual += duration - profile_wall_ns
        for domain, nanos in domains.items():
            layers[domain] = layers.get(domain, 0) + nanos
    if sum(layers.values()) + residual != wall:
        raise ValueError("layer self times do not sum to the point wall")
    return layers, residual

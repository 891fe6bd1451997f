/**
 * @file
 * SweepOptions: the one knob struct for running sweeps. It unifies
 * what used to be SweepRunner::Options plus the per-harness
 * observability flag plumbing and the disk-backed result cache. The
 * bench harness CLI parses it once in bench/args.hh and hands it to
 * SweepRunner unchanged.
 *
 * The fluent with*() setters make one-expression construction read
 * naturally in tests and tools:
 *
 *     auto opts = SweepOptions{}.withJobs(4).withJsonDir("out");
 */

#ifndef CAPCHECK_HARNESS_SWEEP_OPTIONS_HH
#define CAPCHECK_HARNESS_SWEEP_OPTIONS_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "base/types.hh"
#include "obs/options.hh"

namespace capcheck::harness
{

struct RunRequest;

/** Lifetime usage counters of one result cache (in-memory or disk). */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
};

struct SweepOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;

    /** Serve repeated requests from the result cache(s). */
    bool cacheEnabled = true;

    /** Per-run progress lines ("[3/40] gemm_ncubed ... cache=miss
     *  wall=12ms"); nullptr silences them. */
    std::ostream *progress = nullptr;

    /** Directory for run-<hash>.json and <sweep>.manifest.json;
     *  empty = no JSON output. Created on demand. */
    std::string jsonDir;

    /** Directory for per-run Chrome traces
     *  (run-<hash>.trace.json); empty = no tracing. Only fresh
     *  simulations produce files — cache hits reuse the original
     *  run's outputs, which are byte-identical by construction. */
    std::string traceDir;

    /** Cycles between per-run stat samples
     *  (run-<hash>.samples.json, in traceDir or else jsonDir);
     *  0 = sampling off. */
    Cycles sampleInterval = 0;

    /** Directory for per-run JSONL security audit logs
     *  (run-<hash>.audit.jsonl); empty = no audit logs. */
    std::string auditDir;

    /** Directory for per-run flight-recorder tables
     *  (run-<hash>.flights.json: the topN slowest DMA requests
     *  with per-hop breakdowns); empty = off. */
    std::string flightDir;

    /** Directory for per-run latency-attribution summaries
     *  (run-<hash>.latency.json: log2 latency histograms with
     *  p50/p95/p99 plus per-hop cycle attribution); empty = off. */
    std::string latencyDir;

    /** Directory for per-run host-time profiles
     *  (run-<hash>.prof.json: per-domain/site self/total nanos and
     *  share-of-run, from the PROF_SCOPE self-profiler); empty = off.
     *  Host wall-clock, so unlike the artefacts above these files are
     *  machine-dependent — but producing them never changes the
     *  simulated outputs. */
    std::string profDir;

    /** Directory for per-run folded-stacks files (run-<hash>.folded,
     *  Brendan Gregg format for flamegraph.pl/speedscope); empty =
     *  off. */
    std::string foldedDir;

    /** Slowest flights kept per run in the flight table. */
    unsigned topN = 10;

    /**
     * Directory of the disk-backed content-addressed result cache
     * (hash → version-stamped result JSON). Empty = no disk cache.
     * Entries survive the process, and concurrent sweeps sharing the
     * directory coalesce: each missing entry is simulated by exactly
     * one of them while the others wait for it (DiskResultCache).
     * Nothing is evicted: delete the directory to reclaim its space.
     */
    std::string cacheDir;

    /** @{ Fluent setters. */
    SweepOptions &withJobs(unsigned v) { jobs = v; return *this; }
    SweepOptions &withCache(bool v) { cacheEnabled = v; return *this; }
    SweepOptions &
    withProgress(std::ostream *v)
    {
        progress = v;
        return *this;
    }
    SweepOptions &
    withJsonDir(std::string v)
    {
        jsonDir = std::move(v);
        return *this;
    }
    SweepOptions &
    withTraceDir(std::string v)
    {
        traceDir = std::move(v);
        return *this;
    }
    SweepOptions &
    withSampleInterval(Cycles v)
    {
        sampleInterval = v;
        return *this;
    }
    SweepOptions &
    withAuditDir(std::string v)
    {
        auditDir = std::move(v);
        return *this;
    }
    SweepOptions &
    withFlightDir(std::string v)
    {
        flightDir = std::move(v);
        return *this;
    }
    SweepOptions &
    withLatencyDir(std::string v)
    {
        latencyDir = std::move(v);
        return *this;
    }
    SweepOptions &
    withProfDir(std::string v)
    {
        profDir = std::move(v);
        return *this;
    }
    SweepOptions &
    withFoldedDir(std::string v)
    {
        foldedDir = std::move(v);
        return *this;
    }
    SweepOptions &withTopN(unsigned v) { topN = v; return *this; }
    SweepOptions &
    withCacheDir(std::string v)
    {
        cacheDir = std::move(v);
        return *this;
    }
    /** @} */

    /**
     * Defaults with the environment applied: CAPCHECK_CACHE_DIR seeds
     * cacheDir. Explicit flags parsed on top of this still win. Unit tests
     * constructing SweepOptions{} directly are unaffected by the
     * environment.
     */
    static SweepOptions fromEnvironment();
};

/**
 * The per-run observability outputs @p opts selects for @p request:
 * every artefact path is keyed by the request's content hash, so the
 * same request produces the same file names in every sweep.
 */
obs::ObsOptions obsOptionsFor(const SweepOptions &opts,
                              const RunRequest &request);

} // namespace capcheck::harness

#endif // CAPCHECK_HARNESS_SWEEP_OPTIONS_HH

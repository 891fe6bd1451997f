/**
 * @file
 * SweepRunner: executes batches of RunRequests on a pool of worker
 * threads. Each worker owns the SocSystem it is running — the event
 * queue stays single-threaded per simulation — so parallelism is
 * across experiment points, never inside one. A content-hash result
 * map deduplicates identical requests within and across batches
 * (and, with a disk cache, across concurrent sweeps sharing its
 * directory), and completed sweeps can be serialized as JSON under a
 * results directory. Only the calling thread touches that map: the
 * submission loop reads it and run() fills it after the workers are
 * joined, so it needs no lock.
 *
 * Determinism: a request's RunResult depends only on the request, so
 * the outcome vector (input order preserved) and all JSON output are
 * byte-identical whether the batch ran on 1 thread or 8. Wall-clock
 * metadata appears only in progress lines (stderr by convention).
 */

#ifndef CAPCHECK_HARNESS_SWEEP_RUNNER_HH
#define CAPCHECK_HARNESS_SWEEP_RUNNER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "base/types.hh"
#include "harness/disk_cache.hh"
#include "harness/result_json.hh"
#include "harness/run_request.hh"
#include "harness/sweep_options.hh"
#include "obs/prof.hh"

namespace capcheck::harness
{

class SweepRunner
{
  public:
    /**
     * The runner's knobs are the unified SweepOptions. A non-empty
     * cacheDir attaches the disk-backed result cache behind the
     * in-memory results; runners in any process that share the
     * directory then simulate each missing entry once between them.
     */
    using Options = SweepOptions;

    SweepRunner() : SweepRunner(Options{}) {}
    explicit SweepRunner(Options options);

    /**
     * Execute @p requests and return one outcome per request, in
     * input order. Every request is validated (validateSocConfig)
     * before anything runs; duplicates — within the batch or against
     * previous batches — are served from the cache. When a jsonDir is
     * configured, writes one run-<hash>.json per unique request plus
     * <sweep_name>.manifest.json.
     */
    std::vector<RunOutcome> run(const std::vector<RunRequest> &requests,
                                const std::string &sweep_name = "sweep");

    /** Convenience: run a single request through the same machinery. */
    system::RunResult runOne(const RunRequest &request);

    /** Resolved worker count. */
    unsigned jobs() const { return numJobs; }

    /** Simulations actually executed (cache misses) so far. */
    std::uint64_t simulationsExecuted() const { return executed; }

    /** Requests served from the cache so far. */
    std::uint64_t cacheHits() const { return hits; }

    /** The disk cache; nullptr unless Options::cacheDir was set. */
    DiskResultCache *diskCache() { return disk.get(); }

  private:
    /**
     * @p profiles maps request hashes of freshly executed runs to
     * their host-time profiles, so the JSON render and file writes
     * are attributed to the run they serve; nullptr when profiling
     * is off.
     */
    void writeJson(
        const std::vector<RunOutcome> &outcomes,
        const std::string &sweep_name, const SweepProfile &profile,
        const std::map<std::uint64_t, prof::RunProfile *> *profiles)
        const;

    Options opts;
    unsigned numJobs = 1;
    /** Results of earlier batches, by request hash. */
    std::map<std::uint64_t, system::RunResult> results;
    CacheStats memStats;
    std::unique_ptr<DiskResultCache> disk;
    std::uint64_t executed = 0;
    std::uint64_t hits = 0;
};

} // namespace capcheck::harness

#endif // CAPCHECK_HARNESS_SWEEP_RUNNER_HH

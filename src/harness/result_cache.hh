/**
 * @file
 * In-process result cache keyed by RunRequest content hash. Overlapping
 * sweeps (fig8/fig9/fig10 all re-run ccpu+accel points) share one
 * simulation per unique request instead of recomputing it. The cache
 * keeps entry-count/byte accounting and hit/lookup counters, surfaced
 * through stats() into sweep manifests.
 */

#ifndef CAPCHECK_HARNESS_RESULT_CACHE_HH
#define CAPCHECK_HARNESS_RESULT_CACHE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>

#include "harness/sweep_options.hh"
#include "system/run_result.hh"

namespace capcheck::harness
{

/** Approximate in-memory footprint of one cached result. */
std::uint64_t resultApproxBytes(const system::RunResult &result);

/** Thread-safe hash → RunResult store. */
class ResultCache
{
  public:
    /** @return the cached result for @p hash, if any. */
    std::optional<system::RunResult> lookup(std::uint64_t hash) const;

    /** Store @p result under @p hash (first writer wins). */
    void store(std::uint64_t hash, const system::RunResult &result);

    std::size_t size() const;
    void clear();

    /** Occupancy and lifetime hit/lookup counters. */
    CacheStats stats() const;

  private:
    mutable std::mutex mtx;
    std::map<std::uint64_t, system::RunResult> entries;
    std::uint64_t totalBytes = 0;
    mutable std::uint64_t hitCount = 0;
    mutable std::uint64_t lookupCount = 0;
};

} // namespace capcheck::harness

#endif // CAPCHECK_HARNESS_RESULT_CACHE_HH

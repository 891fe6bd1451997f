/**
 * @file
 * Disk-backed content-addressed result cache: one version-stamped JSON
 * file per RunRequest hash under a cache directory. Entries are
 * written to a temporary name and published with an atomic rename, so
 * no reader ever sees a torn file. There is no index: every lookup
 * reads the entry's file, so entries that earlier processes left
 * behind, or that another process published after this instance
 * opened, are served alike.
 *
 * Concurrent sweeps sharing the directory coalesce through per-entry
 * claims: an flock(LOCK_EX) on <hash>.lock next to the entry. The
 * holder re-checks the entry, simulates on a miss and stores before
 * it releases the lock; the others wait on the lock and then find the
 * entry. The kernel drops the lock when its holder exits or crashes,
 * so there is no staleness to judge: a waiter that gets the lock and
 * still finds no entry knows the holder failed and simulates itself.
 * A lock file is unlinked only after its entry is published, and a
 * new holder checks that its descriptor still names the file at the
 * path, so a lock on an unlinked file never passes for the claim.
 *
 * Entries only grow: nothing is evicted, and a hit writes nothing.
 * Delete the directory to reclaim its space.
 */

#ifndef CAPCHECK_HARNESS_DISK_CACHE_HH
#define CAPCHECK_HARNESS_DISK_CACHE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "harness/sweep_options.hh"
#include "system/run_result.hh"

namespace capcheck::harness
{

class DiskResultCache
{
  public:
    /** Bump when the entry document layout changes; readers treat a
     *  mismatched stamp as a miss and overwrite on the next store. */
    static constexpr unsigned formatVersion = 2;

    /** Open the cache under @p dir, creating it if needed. */
    explicit DiskResultCache(std::string dir);

    /**
     * The cached result for @p hash, if a valid entry exists. A file
     * that fails the version or hash check is removed.
     */
    std::optional<system::RunResult> lookup(std::uint64_t hash);

    /**
     * Persist @p result under @p hash. False when the entry could not
     * be published.
     */
    bool store(std::uint64_t hash, const system::RunResult &result);

    /**
     * The exclusive right to produce one entry: a held flock(LOCK_EX)
     * on its lock file. Destruction releases the lock and leaves the
     * file, which is right when no entry was published.
     */
    class Claim
    {
      public:
        Claim() = default;
        Claim(Claim &&other) noexcept;
        Claim &operator=(Claim &&) = delete;
        ~Claim() { release(false); }

        bool held() const { return fd >= 0; }

        /** Drop the lock. With @p published (the entry is on disk),
         *  unlink the lock file first. */
        void release(bool published);

      private:
        friend class DiskResultCache;
        int fd = -1;
        std::string path;
    };

    /**
     * Take the claim on @p hash. With @p wait, block until the current
     * holder releases it; without, return an unheld Claim when another
     * holder has it. Also unheld when the lock file cannot be opened
     * (the caller then proceeds uncoordinated).
     */
    Claim claim(std::uint64_t hash, bool wait);

    /** Lifetime hit and lookup counters of this instance. */
    CacheStats stats() const;

    /** The entry file for @p hash (inside the cache directory). */
    std::string pathFor(std::uint64_t hash) const;

  private:
    std::string dir;

    std::atomic<std::uint64_t> hitCount{0};
    std::atomic<std::uint64_t> lookupCount{0};
};

} // namespace capcheck::harness

#endif // CAPCHECK_HARNESS_DISK_CACHE_HH

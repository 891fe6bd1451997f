/**
 * @file
 * Capability cache (Section 5.2.3): instead of holding every
 * capability in on-chip SRAM, a small CapChecker can cache entries of
 * a larger table that lives in (driver-owned) main memory — "similar
 * to page table caching in IOMMUs/IOTLBs, but with each entry holding
 * a capability". A miss costs a table walk; task eviction shoots the
 * task's cached entries down.
 *
 * Fully associative, LRU replacement, keyed by (task, object). Like
 * the CAM it models, each access computes hit and victim in one scan
 * over every line.
 */

#ifndef CAPCHECK_CAPCHECKER_CAP_CACHE_HH
#define CAPCHECK_CAPCHECKER_CAP_CACHE_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace capcheck::capchecker
{

class CapCache
{
  public:
    /**
     * @param entries cache capacity.
     * @param walk_cycles latency of fetching one capability from the
     *        in-memory table on a miss (two 64-bit reads + tag).
     */
    explicit CapCache(unsigned entries, Cycles walk_cycles = 60);

    CapCache(const CapCache &) = delete;
    CapCache &operator=(const CapCache &) = delete;

    unsigned capacity() const { return static_cast<unsigned>(lines.size()); }
    Cycles walkCycles() const { return _walkCycles; }

    /**
     * Look up (task, object).
     * @return 0 on a hit, the walk latency on a miss (the entry is
     *         filled as a side effect).
     */
    Cycles access(TaskId task, ObjectId object);

    /** True when (task, object) is cached. A diagnostic probe: it
     *  touches neither the LRU state nor the hit/miss counters. */
    bool contains(TaskId task, ObjectId object) const;

    /** Invalidate all lines of @p task (eviction shootdown). */
    void invalidateTask(TaskId task);

    /** Invalidate everything. */
    void flush();

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }

  private:
    struct Line
    {
        bool valid = false;
        TaskId task = invalidTaskId;
        ObjectId object = invalidObjectId;
        std::uint64_t lastUse = 0;
    };

    /** Deep check: LRU stamps unique, within the use clock, and no
     *  duplicate (task, object) lines. Run under CAPCHECK_PARANOID. */
    void checkLruSanity() const;

    std::vector<Line> lines;
    Cycles _walkCycles;
    std::uint64_t useClock = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace capcheck::capchecker

#endif // CAPCHECK_CAPCHECKER_CAP_CACHE_HH

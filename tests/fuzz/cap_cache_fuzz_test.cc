/**
 * @file
 * Model-based fuzzer for the capability cache
 * (src/capchecker/cap_cache.cc). An 8-line cache is driven with a
 * random access/invalidateTask/flush stream over a key space five
 * times its capacity, so misses, LRU evictions and shootdowns are hit
 * constantly. A recency-ordered list of keys is the reference model:
 * every access must return the model's hit/miss latency, and after
 * every operation the cache must hold exactly the model's keys, so
 * each miss evicted the model's least-recently-used victim.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "capchecker/cap_cache.hh"
#include "fuzz_env.hh"

namespace capcheck::capchecker
{
namespace
{

constexpr TaskId numTasks = 5;
constexpr ObjectId numObjects = 8;

using Key = std::pair<TaskId, ObjectId>;

/** Fully associative LRU over keys, least recent first. */
class LruModel
{
  public:
    explicit LruModel(unsigned capacity) : capacity(capacity) {}

    /** @return true on a hit; a miss fills, evicting the LRU key. */
    bool
    access(const Key &key)
    {
        const auto it = std::find(keys.begin(), keys.end(), key);
        const bool hit = it != keys.end();
        if (hit)
            keys.erase(it);
        else if (keys.size() == capacity)
            keys.erase(keys.begin());
        keys.push_back(key);
        return hit;
    }

    void
    invalidateTask(TaskId task)
    {
        std::erase_if(keys,
                      [task](const Key &key) { return key.first == task; });
    }

    void flush() { keys.clear(); }

    bool
    contains(const Key &key) const
    {
        return std::find(keys.begin(), keys.end(), key) != keys.end();
    }

  private:
    unsigned capacity;
    std::vector<Key> keys;
};

TEST(CapCacheFuzz, MatchesLruModel)
{
    Rng rng(fuzz::seed() ^ 0xcac4e);
    const std::uint64_t iters = fuzz::iterations();

    constexpr unsigned entries = 8;
    constexpr Cycles walk = 60;
    CapCache cache(entries, walk);
    LruModel model(entries);
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    for (std::uint64_t i = 0; i < iters; ++i) {
        const TaskId task = static_cast<TaskId>(rng.nextBounded(numTasks));
        const ObjectId object =
            static_cast<ObjectId>(rng.nextBounded(numObjects));

        switch (rng.nextBounded(16)) {
          case 0:
          case 1: // eviction shootdown
            cache.invalidateTask(task);
            model.invalidateTask(task);
            break;
          case 2: // full flush (rare: repopulates the invalid lines)
            cache.flush();
            model.flush();
            break;
          default: {
            const bool hit = model.access({task, object});
            (hit ? hits : misses) += 1;
            ASSERT_EQ(cache.access(task, object), hit ? 0 : walk)
                << "iteration " << i << ": access(" << task << ", "
                << object << ") should "
                << (hit ? "hit" : "miss");
            break;
          }
        }

        ASSERT_EQ(cache.hits(), hits) << "iteration " << i;
        ASSERT_EQ(cache.misses(), misses) << "iteration " << i;
        for (TaskId t = 0; t < numTasks; ++t) {
            for (ObjectId o = 0; o < numObjects; ++o) {
                ASSERT_EQ(cache.contains(t, o), model.contains({t, o}))
                    << "iteration " << i << ": (" << t << ", " << o
                    << ") residency diverged";
            }
        }
    }
}

} // namespace
} // namespace capcheck::capchecker

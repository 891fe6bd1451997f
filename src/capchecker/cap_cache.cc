#include "capchecker/cap_cache.hh"

#include "base/invariant.hh"
#include "base/logging.hh"
#include "obs/prof.hh"

namespace capcheck::capchecker
{

CapCache::CapCache(unsigned entries, Cycles walk_cycles)
    : lines(entries), _walkCycles(walk_cycles)
{
    if (entries == 0)
        fatal("CapCache needs at least one entry");
}

Cycles
CapCache::access(TaskId task, ObjectId object)
{
    PROF_SCOPE("capcheck", "cache.walk");
    ++useClock;
    Line *victim = &lines.front();
    for (Line &line : lines) {
        if (line.valid && line.task == task && line.object == object) {
            line.lastUse = useClock;
            ++_hits;
            if (paranoidChecks)
                checkLruSanity();
            return 0;
        }
        if (!line.valid ||
            (victim->valid && line.lastUse < victim->lastUse))
            victim = &line;
    }

    ++_misses;
    *victim = Line{true, task, object, useClock};
    if (paranoidChecks)
        checkLruSanity();
    return _walkCycles;
}

bool
CapCache::contains(TaskId task, ObjectId object) const
{
    for (const Line &line : lines) {
        if (line.valid && line.task == task && line.object == object)
            return true;
    }
    return false;
}

void
CapCache::checkLruSanity() const
{
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const Line &a = lines[i];
        if (!a.valid)
            continue;
        INVARIANT(a.lastUse > 0 && a.lastUse <= useClock,
                  "LRU stamp %llu outside (0, %llu]",
                  static_cast<unsigned long long>(a.lastUse),
                  static_cast<unsigned long long>(useClock));
        for (std::size_t j = i + 1; j < lines.size(); ++j) {
            const Line &b = lines[j];
            if (!b.valid)
                continue;
            INVARIANT(a.lastUse != b.lastUse,
                      "duplicate LRU stamp %llu",
                      static_cast<unsigned long long>(a.lastUse));
            INVARIANT(a.task != b.task || a.object != b.object,
                      "duplicate cache line for (task %u, object %u)",
                      a.task, a.object);
        }
    }
}

void
CapCache::invalidateTask(TaskId task)
{
    for (Line &line : lines) {
        if (line.valid && line.task == task)
            line = Line{};
    }
    if (paranoidChecks)
        checkLruSanity();
}

void
CapCache::flush()
{
    for (Line &line : lines)
        line = Line{};
    useClock = 0;
}

} // namespace capcheck::capchecker

/**
 * @file
 * The event queue's lazy-deletion housekeeping. Historically
 * reschedule() stranded one cancelled entry per call with nothing ever
 * reclaiming them mid-run, so reschedule-heavy components grew the heap
 * without bound; compaction now bounds the stored entries by the live
 * count.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/eventq.hh"

namespace capcheck
{
namespace
{

TEST(EventQueueCompaction, RescheduleChurnIsBounded)
{
    EventQueue q;
    std::vector<std::unique_ptr<LambdaEvent>> events;
    for (int i = 0; i < 8; ++i) {
        events.push_back(std::make_unique<LambdaEvent>([] {}));
        q.schedule(events.back().get(), 100 + i);
    }

    for (int i = 0; i < 20000; ++i) {
        LambdaEvent *ev = events[i % events.size()].get();
        q.reschedule(ev, 100 + (i * 13) % 50);
        ASSERT_EQ(q.pending(), events.size());
        // The documented compaction bound; without it the heap would
        // hold ~20000 stale entries by the end of the loop.
        ASSERT_LE(q.storedEntries(), 2 * q.pending() + 1)
            << "iteration " << i;
    }

    for (auto &ev : events)
        q.deschedule(ev.get());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_LE(q.storedEntries(), 1u);
}

} // namespace
} // namespace capcheck

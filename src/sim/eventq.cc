#include "sim/eventq.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>

#include "base/invariant.hh"
#include "base/logging.hh"

namespace capcheck
{

Event::~Event()
{
    // The owner must deschedule before destruction; the queue holds raw
    // pointers, so a still-scheduled event would leave a dangling entry
    // that serviceOne() dereferences later. A destructor cannot throw,
    // so this is a hard abort rather than a panic() -- except while a
    // SimError is already unwinding the stack, where owners being torn
    // down mid-simulation is expected collateral and aborting would
    // hide the original error from the caller.
    if (_scheduled) {
        if (std::uncaught_exceptions() > 0) {
            detail::logMessage(
                "warn", detail::formatString(
                            "event destroyed while scheduled during "
                            "error unwind: %s",
                            description().c_str()));
            return;
        }
        detail::logMessage(
            "panic", detail::formatString(
                         "event destroyed while scheduled: %s",
                         description().c_str()));
        std::abort();
    }
}

prof::SiteId
Event::profSite() const
{
    static const prof::SiteId site =
        prof::registerSite("sim", "event.generic");
    return site;
}

void
EventQueue::schedule(Event *event, Cycles when)
{
    if (event->_scheduled)
        panic("scheduling already-scheduled event: %s",
              event->description().c_str());
    if (when < _curCycle)
        panic("scheduling event in the past (%llu < %llu): %s",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_curCycle),
              event->description().c_str());

    event->_when = when;
    event->_sequence = nextSequence++;
    event->_scheduled = true;
    const Entry entry{when, event->priority(), event->_sequence, event};
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    ++live;
    PARANOID_INVARIANT(storedEntries() == live + cancelled.size(),
                       "live-count conservation after schedule");
}

void
EventQueue::deschedule(Event *event)
{
    if (!event->_scheduled)
        panic("descheduling non-scheduled event: %s",
              event->description().c_str());
    // Lazy deletion: remember the cancelled sequence number; the
    // stored entry is dropped when it surfaces — or wholesale by
    // compaction once stale entries outnumber live ones. The Event is
    // never dereferenced through the stale entry, so the owner is
    // free to destroy a descheduled event immediately.
    cancelled.insert(event->_sequence);
    event->_scheduled = false;
    --live;
    maybeCompact();
    PARANOID_INVARIANT(storedEntries() == live + cancelled.size(),
                       "live-count conservation after deschedule");
}

void
EventQueue::reschedule(Event *event, Cycles when)
{
    if (event->_scheduled)
        deschedule(event);
    schedule(event, when);
}

void
EventQueue::maybeCompact()
{
    // Amortized O(1): a compaction costs O(stored) but only fires once
    // stale entries exceed live ones, so the next trigger needs the
    // (now at most half-sized) storage to degrade by half again.
    if (cancelled.size() <= live)
        return;
    const auto stale = [this](const Entry &entry) {
        return cancelled.count(entry.sequence) != 0;
    };
    heap.erase(std::remove_if(heap.begin(), heap.end(), stale),
               heap.end());
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
    cancelled.clear();
    INVARIANT(storedEntries() == live,
              "compaction lost events: %zu stored, %zu live",
              storedEntries(), live);
}

bool
EventQueue::purgeStale()
{
    while (!heap.empty()) {
        const auto it = cancelled.find(heap.front().sequence);
        if (it == cancelled.end())
            return true;
        cancelled.erase(it);
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        heap.pop_back();
    }
    INVARIANT(live == 0, "empty heap with %zu live events", live);
    return false;
}

void
EventQueue::serviceOne()
{
    const Entry entry = front();
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    heap.pop_back();

    Event *event = entry.event;
    // purgeStale() ran just before us: the front entry must be live and
    // current, so dereferencing the pointer is safe.
    INVARIANT(event->_scheduled && event->_sequence == entry.sequence,
              "stale entry survived purge");
    INVARIANT(entry.when >= _curCycle,
              "event time not monotonic (%llu < %llu)",
              static_cast<unsigned long long>(entry.when),
              static_cast<unsigned long long>(_curCycle));

    if (entry.when != _curCycle) {
        _curCycle = entry.when;
        _cycleProbe.notify(_curCycle);
    }
    event->_scheduled = false;
    --live;
    PARANOID_INVARIANT(storedEntries() == live + cancelled.size(),
                       "live-count conservation after pop");
    // Event-dispatch boundary: when a profile session is active on
    // this thread, attribute the dispatch to the event's site. The
    // disabled path stays a TLS load + branch with no clock reads.
    if (prof::current() != nullptr) {
        const prof::ScopeTimer scope(event->profSite());
        event->process();
    } else {
        event->process();
    }
}

Cycles
EventQueue::run(Cycles limit)
{
    PROF_SCOPE("sim", "eventq.run");
    while (purgeStale() && front().when <= limit)
        serviceOne();
    // The queue drained or the next event lies beyond the horizon:
    // with a finite limit, time still advances to the horizon (and the
    // cycle probe fires) so periodic observers see their final window.
    if (limit != forever && _curCycle < limit) {
        _curCycle = limit;
        _cycleProbe.notify(_curCycle);
    }
    return _curCycle;
}

void
EventQueue::step()
{
    if (!purgeStale())
        return;
    const Cycles cycle = front().when;
    while (purgeStale() && front().when == cycle)
        serviceOne();
}

} // namespace capcheck

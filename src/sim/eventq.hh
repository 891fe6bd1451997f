/**
 * @file
 * Discrete-event simulation kernel. Time is measured in clock cycles of
 * the single system clock domain (the paper's prototype runs the CPU,
 * interconnect, CapChecker and accelerators off one clock).
 *
 * Events scheduled for the same cycle fire in (priority, sequence) order,
 * which keeps the simulation deterministic regardless of container
 * internals.
 *
 * Storage is one binary min-heap over every pending entry. Descheduled
 * entries are deleted lazily and the heap is compacted once stale
 * entries outnumber live ones, so reschedule-heavy components cannot
 * grow the queue without bound.
 */

#ifndef CAPCHECK_SIM_EVENTQ_HH
#define CAPCHECK_SIM_EVENTQ_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/probe.hh"
#include "base/types.hh"
#include "obs/prof.hh"

namespace capcheck
{

class EventQueue;

/**
 * A schedulable event. Subclass and override process(), or use
 * LambdaEvent for ad-hoc callbacks.
 */
class Event
{
  public:
    /** Standard priorities; lower values fire first within a cycle. */
    enum Priority : int
    {
        responsePrio = 10, ///< memory responses arrive first
        checkPrio = 20,    ///< protection checks
        arbitratePrio = 30,///< interconnect arbitration
        requestPrio = 40,  ///< new requests issue
        defaultPrio = 50,
        statsPrio = 90,
    };

    explicit Event(int priority = defaultPrio) : _priority(priority) {}

    /**
     * Destroying an event that is still scheduled is a hard error —
     * the queue would be left holding a dangling pointer, so this
     * aborts (destructors cannot throw). Deschedule first. A
     * descheduled event may be destroyed immediately: the queue tracks
     * its stale entry by sequence number and never touches the event
     * again.
     */
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    virtual void process() = 0;

    /** Human-readable event description, used in panic messages. */
    virtual std::string description() const { return "generic event"; }

    /**
     * Profiler site this event's dispatch is attributed to, keying
     * the (component kind, event kind) pair. The default is a shared
     * "sim"/"event.generic" site; components whose dispatch dominates
     * override it (TickingObject ticks, memory responses). Only
     * consulted while a profile session is active on the servicing
     * thread, so overrides may lazily register and cache their site.
     */
    virtual prof::SiteId profSite() const;

    bool scheduled() const { return _scheduled; }
    Cycles when() const { return _when; }
    int priority() const { return _priority; }

  private:
    friend class EventQueue;

    Cycles _when = 0;
    std::uint64_t _sequence = 0;
    int _priority;
    bool _scheduled = false;
};

/** Event wrapping a std::function. */
class LambdaEvent : public Event
{
  public:
    explicit LambdaEvent(std::function<void()> fn,
                         int priority = defaultPrio)
        : Event(priority), fn(std::move(fn))
    {
    }

    void process() override { fn(); }
    std::string description() const override { return "lambda event"; }

  private:
    std::function<void()> fn;
};

/**
 * The event queue. One instance per simulated system.
 */
class EventQueue
{
  public:
    /** run() limit meaning "no horizon": drain and stop at the last
     *  processed event's cycle. */
    static constexpr Cycles forever = ~Cycles{0};

    /** Current simulation time in cycles. */
    Cycles curCycle() const { return _curCycle; }

    /** Schedule @p event at absolute cycle @p when (>= curCycle()). */
    void schedule(Event *event, Cycles when);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event *event);

    /** Re-schedule an already scheduled event to a new time. */
    void reschedule(Event *event, Cycles when);

    /** True when no live events remain (stale entries ignored). */
    bool empty() const { return live == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return live; }

    /**
     * Entries physically held (live + not-yet-purged stale). The
     * compaction bound: storedEntries() never exceeds 2 * pending()
     * + 1, however reschedule-heavy the workload.
     */
    std::size_t storedEntries() const { return heap.size(); }

    /**
     * Run until the queue drains or @p limit cycles elapse. With a
     * finite limit, time always advances to @p limit (and the cycle
     * probe fires) even when the queue drains early, so periodic
     * observers see their final window.
     * @return the current cycle after the run.
     */
    Cycles run(Cycles limit = forever);

    /** Process events for exactly one cycle (the earliest pending one). */
    void step();

    /**
     * Fired whenever simulated time advances, with the new cycle.
     * Events within one cycle fire between two notifications; the
     * stats sampler keys its snapshots off this probe.
     */
    probe::ProbePoint<Cycles> &cycleProbe() { return _cycleProbe; }

  private:
    struct Entry
    {
        Cycles when;
        int priority;
        std::uint64_t sequence;
        Event *event;

        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            if (priority != other.priority)
                return priority > other.priority;
            return sequence > other.sequence;
        }
    };

    void serviceOne();
    bool purgeStale();
    /** Earliest live entry; call only after purgeStale() returned
     *  true. */
    const Entry &front() const { return heap.front(); }
    /** Drop stale entries wholesale once they outnumber live ones. */
    void maybeCompact();

    /** A min-heap (std::greater order) kept with the <algorithm> heap
     *  primitives so compaction can filter it in place. */
    std::vector<Entry> heap;

    /**
     * Lazy deletion: sequence numbers of descheduled entries still
     * sitting in the heap. Stale entries are identified by this set
     * alone — their Event pointers are never dereferenced, so the
     * owner may destroy a descheduled event at any time.
     */
    std::unordered_set<std::uint64_t> cancelled;
    Cycles _curCycle = 0;
    std::uint64_t nextSequence = 0;
    std::size_t live = 0;
    probe::ProbePoint<Cycles> _cycleProbe{"eventq.cycle"};
};

} // namespace capcheck

#endif // CAPCHECK_SIM_EVENTQ_HH

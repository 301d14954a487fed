/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The substrate replacing the paper's physical 3-tier testbed is a
 * discrete-event queueing-network simulator. This kernel provides the
 * virtual clock and a time-ordered event calendar with stable FIFO
 * ordering for simultaneous events: O(log n) schedule, O(1) cancel.
 *
 * The calendar allocates nothing per event. Callbacks are
 * InlineFunction objects held in a slab of slots recycled through a
 * free list; the binary heap orders small {when, seq, slot, generation}
 * records. `seq` is a global scheduling counter, so simultaneous events
 * fire in scheduling order regardless of which slot they occupy.
 */

#ifndef WCNN_SIM_SIMULATOR_HH
#define WCNN_SIM_SIMULATOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inline_function.hh"

namespace wcnn {
namespace sim {

/**
 * Opaque, nonzero handle identifying a scheduled event (for
 * cancellation). It packs the event's calendar slot with that slot's
 * generation, which advances every time the slot is taken or freed, so
 * a handle whose event already fired or was cancelled never matches a
 * later event that reuses the slot.
 */
using EventId = std::uint64_t;

/**
 * Event-calendar simulator with a double-precision clock.
 *
 * Events scheduled for the same timestamp fire in scheduling order.
 * Cancellation frees the callback at once; the heap record it leaves
 * behind no longer matches its slot's generation and is skipped when
 * popped.
 */
class Simulator
{
  public:
    Simulator() = default;

    /** Current simulation time (seconds). */
    double now() const { return clock; }

    /**
     * Schedule a callback after a delay.
     *
     * @param delay Non-negative offset from now().
     * @param fn    Callback to invoke at now() + delay.
     * @return Handle usable with cancel().
     */
    EventId schedule(double delay, Callback fn);

    /**
     * Schedule a callback at an absolute time.
     *
     * @param when Absolute time >= now().
     * @param fn   Callback to invoke.
     * @return Handle usable with cancel().
     */
    EventId scheduleAt(double when, Callback fn);

    /**
     * Cancel a pending event in O(1). Cancelling an id that already
     * fired, was already cancelled, or was never issued is a no-op.
     *
     * @param id Handle from schedule()/scheduleAt().
     */
    void cancel(EventId id);

    /**
     * Run until the calendar empties or the clock passes the horizon.
     * Events at exactly the horizon still fire.
     *
     * @param until Simulation-time horizon (seconds).
     */
    void run(double until);

    /** Stop a run() in progress after the current event returns. */
    void stop() { stopping = true; }

    /** Events dispatched so far (excludes cancelled ones). */
    std::size_t eventsProcessed() const { return nProcessed; }

    /** Pending (non-cancelled) event count. */
    std::size_t pendingEvents() const { return heap.size() - nStale; }

  private:
    /** Heap record; (when, seq) is a strict total order. */
    struct Entry
    {
        double when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t generation;
    };

    /**
     * Callback storage. `generation` is odd while the slot holds a
     * pending event and even while it is free; it advances on every
     * acquire and release.
     */
    struct Slot
    {
        Callback fn;
        std::uint32_t generation = 0;
        std::uint32_t nextFree = 0;
    };

    /** Free-list terminator. */
    static constexpr std::uint32_t noSlot = ~std::uint32_t{0};

    /** Take a slot off the free list, growing the slab if empty. */
    std::uint32_t acquireSlot();

    /** Mark a slot free (its callback already moved out or reset). */
    void releaseSlot(std::uint32_t slot);

    double clock = 0.0;
    std::uint64_t nextSeq = 1;
    std::size_t nProcessed = 0;
    /** Heap records whose event was cancelled. */
    std::size_t nStale = 0;
    bool stopping = false;
    std::vector<Entry> heap;
    std::vector<Slot> slots;
    /** Head of the free-slot list. */
    std::uint32_t freeHead = noSlot;
};

} // namespace sim
} // namespace wcnn

#endif // WCNN_SIM_SIMULATOR_HH

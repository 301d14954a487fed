#include "simulator.hh"

#include <algorithm>

#include "core/contracts.hh"


namespace wcnn {
namespace sim {

namespace {

/** Heap order: true when `a` fires after `b`, so the earliest is on top. */
struct Later
{
    template <typename E>
    bool
    operator()(const E &a, const E &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq; // FIFO among simultaneous events
    }
};

} // namespace

EventId
Simulator::schedule(double delay, Callback fn)
{
    WCNN_REQUIRE(delay >= 0.0, "cannot schedule ", delay,
                 " into the past");
    return scheduleAt(clock + delay, std::move(fn));
}

EventId
Simulator::scheduleAt(double when, Callback fn)
{
    WCNN_REQUIRE(when >= clock, "cannot schedule at ", when,
                 ", clock is already at ", clock);
    WCNN_REQUIRE(static_cast<bool>(fn), "cannot schedule an empty callback");
    const std::uint32_t slot = acquireSlot();
    Slot &s = slots[slot];
    s.fn = std::move(fn);
    heap.push_back(Entry{when, nextSeq++, slot, s.generation});
    std::push_heap(heap.begin(), heap.end(), Later{});
    return (EventId{s.generation} << 32) | slot;
}

void
Simulator::cancel(EventId id)
{
    const auto slot = static_cast<std::uint32_t>(id);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    // Free slots carry an even generation, so no id matches one.
    if (slot >= slots.size() || slots[slot].generation != generation)
        return;
    slots[slot].fn.reset();
    releaseSlot(slot);
    ++nStale;
}

std::uint32_t
Simulator::acquireSlot()
{
    std::uint32_t slot = freeHead;
    if (slot == noSlot) {
        WCNN_REQUIRE(slots.size() < noSlot, "event calendar full");
        slot = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
    } else {
        freeHead = slots[slot].nextFree;
    }
    ++slots[slot].generation; // even (free) -> odd (pending)
    return slot;
}

void
Simulator::releaseSlot(std::uint32_t slot)
{
    Slot &s = slots[slot];
    ++s.generation; // odd (pending) -> even (free)
    s.nextFree = freeHead;
    freeHead = slot;
}

void
Simulator::run(double until)
{
    stopping = false;
    while (!heap.empty() && !stopping) {
        const Entry top = heap.front();
        if (top.when > until)
            break;
        std::pop_heap(heap.begin(), heap.end(), Later{});
        heap.pop_back();
        Slot &s = slots[top.slot];
        if (s.generation != top.generation) {
            --nStale; // cancelled; its slot was freed by cancel()
            continue;
        }
        // Move the callback out first: it may schedule events, which can
        // reuse this slot or grow the slab.
        Callback fn = std::move(s.fn);
        releaseSlot(top.slot);
        clock = top.when;
        ++nProcessed;
        fn();
    }
    if (clock < until)
        clock = until;
}

} // namespace sim
} // namespace wcnn

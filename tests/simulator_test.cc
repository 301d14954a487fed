/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/simulator.hh"

using wcnn::sim::Simulator;

TEST(SimulatorTest, StartsAtTimeZero)
{
    Simulator sim;
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);
    EXPECT_EQ(sim.eventsProcessed(), 0u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(3.0, [&] { order.push_back(3); });
    sim.schedule(1.0, [&] { order.push_back(1); });
    sim.schedule(2.0, [&] { order.push_back(2); });
    sim.run(10.0);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.eventsProcessed(), 3u);
}

TEST(SimulatorTest, SimultaneousEventsFireFifo)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        sim.schedule(1.0, [&order, i] { order.push_back(i); });
    sim.run(2.0);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ClockAdvancesToEventTime)
{
    Simulator sim;
    double seen = -1.0;
    sim.schedule(4.5, [&] { seen = sim.now(); });
    sim.run(10.0);
    EXPECT_DOUBLE_EQ(seen, 4.5);
    // After draining, the clock lands on the horizon.
    EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(SimulatorTest, HorizonStopsExecution)
{
    Simulator sim;
    bool late_fired = false;
    sim.schedule(5.0, [&] { late_fired = true; });
    sim.run(4.0);
    EXPECT_FALSE(late_fired);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    // A later run picks the event up.
    sim.run(6.0);
    EXPECT_TRUE(late_fired);
}

TEST(SimulatorTest, EventExactlyAtHorizonFires)
{
    Simulator sim;
    bool fired = false;
    sim.schedule(5.0, [&] { fired = true; });
    sim.run(5.0);
    EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelSuppressesEvent)
{
    Simulator sim;
    bool fired = false;
    const auto id = sim.schedule(1.0, [&] { fired = true; });
    sim.cancel(id);
    sim.run(2.0);
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.eventsProcessed(), 0u);
}

TEST(SimulatorTest, CancelUnknownIdIsNoOp)
{
    Simulator sim;
    sim.cancel(0);
    sim.cancel(12345);
    bool fired = false;
    sim.schedule(1.0, [&] { fired = true; });
    sim.run(2.0);
    EXPECT_TRUE(fired);
}

TEST(SimulatorTest, EventsCanScheduleEvents)
{
    Simulator sim;
    int chain = 0;
    std::function<void()> step = [&] {
        if (++chain < 5)
            sim.schedule(1.0, step);
    };
    sim.schedule(1.0, step);
    sim.run(100.0);
    EXPECT_EQ(chain, 5);
    EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime)
{
    Simulator sim;
    double seen = 0.0;
    sim.scheduleAt(7.25, [&] { seen = sim.now(); });
    sim.run(8.0);
    EXPECT_DOUBLE_EQ(seen, 7.25);
}

TEST(SimulatorTest, StopHaltsRun)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(1.0, [&] {
        ++fired;
        sim.stop();
    });
    sim.schedule(2.0, [&] { ++fired; });
    sim.run(10.0);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.pendingEvents(), 1u);
}

TEST(SimulatorTest, PendingEventsExcludesCancelled)
{
    Simulator sim;
    sim.schedule(1.0, [] {});
    const auto id = sim.schedule(2.0, [] {});
    EXPECT_EQ(sim.pendingEvents(), 2u);
    sim.cancel(id);
    EXPECT_EQ(sim.pendingEvents(), 1u);
}

TEST(SimulatorTest, CancelAfterFireIsNoOp)
{
    Simulator sim;
    int fired = 0;
    const auto id = sim.schedule(1.0, [&] { ++fired; });
    sim.run(2.0);
    EXPECT_EQ(fired, 1);
    sim.cancel(id);
    sim.cancel(id);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    sim.schedule(1.0, [&] { ++fired; });
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run(4.0);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorTest, StaleHandleDoesNotCancelReusedSlot)
{
    Simulator sim;
    std::vector<int> order;
    // A fired handle, then a cancelled one: each frees its slot for the
    // next schedule, and the old handle must not reach the new event.
    const auto fired = sim.schedule(1.0, [&] { order.push_back(1); });
    sim.run(1.0);
    sim.schedule(1.0, [&] { order.push_back(2); });
    sim.cancel(fired);
    const auto cancelled = sim.schedule(1.0, [&] { order.push_back(-1); });
    EXPECT_NE(cancelled, fired);
    sim.cancel(cancelled);
    sim.schedule(1.0, [&] { order.push_back(3); });
    sim.cancel(cancelled);
    EXPECT_EQ(sim.pendingEvents(), 2u);
    sim.run(3.0);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.eventsProcessed(), 3u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorTest, ZeroDelayCancelAndRescheduleFireInSchedulingOrder)
{
    // The PS CPU's pattern: at one instant, cancel the pending
    // completion and schedule a new one among other zero-delay events.
    // Stale heap records share the timestamp and precede their slot's
    // new occupant; they must be skipped, and the rest fire FIFO.
    Simulator sim;
    std::vector<int> order;
    sim.schedule(1.0, [&] {
        sim.schedule(0.0, [&] { order.push_back(1); });
        auto pending = sim.schedule(0.0, [&] { order.push_back(-1); });
        sim.cancel(pending);
        sim.schedule(0.0, [&] { order.push_back(2); });
        pending = sim.schedule(0.0, [&] { order.push_back(-2); });
        sim.cancel(pending);
        pending = sim.schedule(0.0, [&] {
            order.push_back(3);
            sim.schedule(0.0, [&] { order.push_back(5); });
        });
        sim.schedule(0.0, [&] { order.push_back(4); });
    });
    sim.run(1.0);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(sim.eventsProcessed(), 6u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

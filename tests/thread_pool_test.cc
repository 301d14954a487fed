/**
 * @file
 * Unit tests for the two worker pools: the app-server execute queue
 * (sim::ThreadPool, simulated time) and its generalization into real
 * OS threads (core::ThreadPool / core::parallelFor), whose determinism
 * and first-failure contracts the parallel model paths rely on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/contracts.hh"
#include "core/parallel.hh"
#include "sim/thread_pool.hh"

using wcnn::sim::Callback;
using wcnn::sim::Simulator;
using wcnn::sim::ThreadPool;

TEST(ThreadPoolTest, ZeroConfiguredFloorsToOneWorker)
{
    Simulator sim;
    ThreadPool pool(sim, "default", 0, 10);
    EXPECT_EQ(pool.threads(), 1u);
}

TEST(ThreadPoolTest, ImmediateDispatchWhenIdle)
{
    Simulator sim;
    ThreadPool pool(sim, "web", 2, 10);
    bool started = false;
    pool.submit([&](Callback done) {
        started = true;
        done();
    });
    EXPECT_TRUE(started);
    EXPECT_EQ(pool.completed(), 1u);
    EXPECT_EQ(pool.busy(), 0u);
}

TEST(ThreadPoolTest, ThreadHeldUntilCompletionThunk)
{
    Simulator sim;
    ThreadPool pool(sim, "web", 1, 10);
    Callback finish;
    pool.submit([&](Callback done) {
        finish = std::move(done);
    });
    EXPECT_EQ(pool.busy(), 1u);
    bool second_started = false;
    pool.submit([&](Callback done) {
        second_started = true;
        done();
    });
    EXPECT_FALSE(second_started);
    EXPECT_EQ(pool.queued(), 1u);
    finish(); // releases the worker; queued item dispatches
    EXPECT_TRUE(second_started);
    EXPECT_EQ(pool.completed(), 2u);
}

TEST(ThreadPoolTest, BacklogCapRejects)
{
    Simulator sim;
    ThreadPool pool(sim, "web", 1, 2);
    std::vector<Callback> finishers;
    // Occupy the worker and fill the backlog.
    for (int i = 0; i < 3; ++i) {
        const bool ok = pool.submit([&](Callback done) {
            finishers.push_back(std::move(done));
        });
        EXPECT_TRUE(ok);
    }
    EXPECT_EQ(pool.queued(), 2u);
    EXPECT_FALSE(pool.submit([](Callback) {}));
    EXPECT_EQ(pool.dropped(), 1u);
}

TEST(ThreadPoolTest, QueueDelayMeasured)
{
    Simulator sim;
    ThreadPool pool(sim, "web", 1, 10);
    // First item holds the thread for 2 seconds of simulated time.
    pool.submit([&](Callback done) {
        sim.schedule(2.0, std::move(done));
    });
    bool ran = false;
    pool.submit([&](Callback done) {
        ran = true;
        done();
    });
    sim.run(10.0);
    EXPECT_TRUE(ran);
    // One dispatch waited 0s, the other 2s.
    EXPECT_EQ(pool.queueDelay().count(), 2u);
    EXPECT_NEAR(pool.queueDelay().max(), 2.0, 1e-12);
}

TEST(ThreadPoolTest, ParallelWorkersRunConcurrently)
{
    Simulator sim;
    ThreadPool pool(sim, "web", 3, 10);
    int active_peak = 0, active = 0;
    // A Callback cannot capture another; park each thunk by index.
    std::vector<Callback> finishers(3);
    for (std::size_t i = 0; i < 3; ++i) {
        pool.submit([&, i](Callback done) {
            ++active;
            active_peak = std::max(active_peak, active);
            finishers[i] = std::move(done);
            sim.schedule(1.0, [&active, &finishers, i] {
                --active;
                finishers[i]();
            });
        });
    }
    EXPECT_EQ(pool.busy(), 3u);
    sim.run(10.0);
    EXPECT_EQ(active_peak, 3);
    EXPECT_EQ(pool.completed(), 3u);
}

TEST(ThreadPoolTest, NameAccessor)
{
    Simulator sim;
    ThreadPool pool(sim, "mfg", 4, 10);
    EXPECT_EQ(pool.name(), "mfg");
    EXPECT_EQ(pool.threads(), 4u);
}

// ---- core::ThreadPool: the real-OS-thread generalization. ----

namespace {

/** Thread counts the contracts are exercised at. */
constexpr std::size_t kCoreThreadCounts[] = {1, 2, 8};

} // namespace

TEST(CoreThreadPoolTest, HardwareThreadsAtLeastOne)
{
    EXPECT_GE(wcnn::core::hardwareThreads(), 1u);
}

TEST(CoreThreadPoolTest, ThreadsAccessor)
{
    wcnn::core::ThreadPool three(3);
    EXPECT_EQ(three.threads(), 3u);
    wcnn::core::ThreadPool automatic(0);
    EXPECT_EQ(automatic.threads(), wcnn::core::hardwareThreads());
}

TEST(CoreThreadPoolTest, RunsEveryTaskExactlyOnce)
{
    for (std::size_t threads : kCoreThreadCounts) {
        wcnn::core::ThreadPool pool(threads);
        const std::size_t n = 100;
        std::vector<int> hits(n, 0);
        std::atomic<int> total{0};
        pool.forEach(n, [&](std::size_t i) {
            ++hits[i]; // own slot only: no synchronization needed
            total.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(total.load(), static_cast<int>(n));
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i], 1) << "task " << i;
    }
}

TEST(CoreThreadPoolTest, ResultsIndependentOfThreadCountAndOrder)
{
    // Index-slot writes make the outcome a pure function of n, however
    // the scheduler interleaves the claims.
    const std::size_t n = 257;
    const auto run = [n](std::size_t threads) {
        std::vector<double> out(n);
        wcnn::core::parallelFor(n, threads, [&](std::size_t i) {
            out[i] = static_cast<double>(i * i) * 0.25;
        });
        return out;
    };
    const std::vector<double> serial = run(1);
    for (std::size_t threads : kCoreThreadCounts)
        EXPECT_EQ(run(threads), serial);
}

TEST(CoreThreadPoolTest, LowestIndexExceptionWinsAtEveryThreadCount)
{
    // Several tasks fail; the rethrown exception must be the lowest
    // failing index no matter how many runners raced for tasks.
    for (std::size_t threads : kCoreThreadCounts) {
        std::string caught;
        try {
            wcnn::core::parallelFor(64, threads, [](std::size_t i) {
                if (i >= 7 && i % 3 == 1)
                    throw std::runtime_error("task " +
                                             std::to_string(i));
            });
        } catch (const std::runtime_error &e) {
            caught = e.what();
        }
        EXPECT_EQ(caught, "task 7") << "threads = " << threads;
    }
}

TEST(CoreThreadPoolTest, AllTasksStillRunWhenOneThrows)
{
    // First-failure semantics drain the whole batch before rethrowing,
    // so the exception choice cannot depend on scheduling.
    for (std::size_t threads : kCoreThreadCounts) {
        const std::size_t n = 32;
        std::vector<int> hits(n, 0);
        EXPECT_THROW(
            wcnn::core::parallelFor(n, threads,
                                    [&](std::size_t i) {
                                        ++hits[i];
                                        if (i == 3)
                                            throw std::runtime_error(
                                                "boom");
                                    }),
            std::runtime_error);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i], 1) << "task " << i;
    }
}

#ifndef WCNN_NO_CONTRACTS
TEST(CoreThreadPoolTest, ContractViolationPropagates)
{
    // A contract tripping inside a worker must surface to the caller
    // as the same exception type it throws serially.
    for (std::size_t threads : kCoreThreadCounts) {
        EXPECT_THROW(wcnn::core::parallelFor(
                         8, threads,
                         [](std::size_t i) {
                             WCNN_REQUIRE(i != 5,
                                          "task 5 violates its "
                                          "contract");
                         }),
                     wcnn::ContractViolation);
    }
}
#endif

TEST(CoreThreadPoolTest, PoolReusableAcrossBatchesAndAfterFailure)
{
    wcnn::core::ThreadPool pool(4);
    std::vector<int> first(10, 0);
    pool.forEach(10, [&](std::size_t i) { first[i] = 1; });
    EXPECT_THROW(pool.forEach(10,
                              [](std::size_t i) {
                                  if (i == 2)
                                      throw std::runtime_error("x");
                              }),
                 std::runtime_error);
    // The failed batch must not poison the next one.
    std::vector<int> second(10, 0);
    pool.forEach(10, [&](std::size_t i) { second[i] = 2; });
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_EQ(first[i], 1);
        EXPECT_EQ(second[i], 2);
    }
}

TEST(CoreThreadPoolTest, ZeroAndSingleTaskBatches)
{
    wcnn::core::ThreadPool pool(4);
    int runs = 0;
    pool.forEach(0, [&](std::size_t) { ++runs; });
    EXPECT_EQ(runs, 0);
    pool.forEach(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++runs;
    });
    EXPECT_EQ(runs, 1);
    wcnn::core::parallelFor(0, 0, [&](std::size_t) { ++runs; });
    EXPECT_EQ(runs, 1);
}

TEST(CoreThreadPoolTest, MoreThreadsThanTasks)
{
    std::vector<int> hits(3, 0);
    wcnn::core::parallelFor(3, 16,
                            [&](std::size_t i) { ++hits[i]; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

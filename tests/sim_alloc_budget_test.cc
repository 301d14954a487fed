/**
 * @file
 * Heap-allocation budget of the discrete-event simulator.
 *
 * This binary replaces the global operator new with a counting one, so
 * it is its own executable. A default-configuration run must stay
 * below one heap allocation per injected transaction: the event
 * calendar, the callbacks and the transaction flows recycle their
 * storage, and what remains is amortised container growth.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/three_tier.hh"

namespace {

std::atomic<std::size_t> allocationCount{0};

void *
countedAlloc(std::size_t size)
{
    allocationCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    allocationCount.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded == 0 ? a : rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace wcnn::sim;

TEST(SimAllocBudgetTest, CounterSeesHeapAllocations)
{
    // Guards against the replacement not being linked in, which would
    // make the budget below pass vacuously.
    const std::size_t before = allocationCount.load();
    auto *v = new std::vector<int>(100, 1);
    const std::size_t seen = allocationCount.load() - before;
    delete v;
    EXPECT_EQ(seen, 2u);
}

TEST(SimAllocBudgetTest, DefaultRunAllocatesLessThanOncePerTransaction)
{
    ThreeTierConfig cfg;
    cfg.seed = 3;
    const WorkloadParams params = WorkloadParams::defaults();
    RunDiagnostics diag;
    const std::size_t before = allocationCount.load();
    simulateThreeTier(cfg, params, &diag);
    const std::size_t allocations = allocationCount.load() - before;
    ASSERT_GT(diag.injected, 0u);
    const double per_txn = static_cast<double>(allocations) /
                           static_cast<double>(diag.injected);
    RecordProperty("allocations", static_cast<int>(allocations));
    RecordProperty("injected", static_cast<int>(diag.injected));
    EXPECT_LT(per_txn, 1.0) << allocations << " heap allocations for "
                            << diag.injected << " transactions";
}

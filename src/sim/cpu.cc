#include "cpu.hh"

#include <algorithm>
#include <limits>

#include "core/contracts.hh"

namespace wcnn {
namespace sim {

namespace {

/** Completion slop guarding against floating-point drift. */
constexpr double workEpsilon = 1e-12;

} // namespace

PsCpu::PsCpu(Simulator &sim, std::size_t cores, double thread_overhead,
             double cs_overhead)
    : sim(sim), nCores(cores), threadOverhead(thread_overhead),
      csOverhead(cs_overhead)
{
    WCNN_REQUIRE(cores > 0, "CPU needs at least one core");
    WCNN_REQUIRE(thread_overhead >= 0.0,
                 "thread overhead must be non-negative, got ",
                 thread_overhead);
    WCNN_REQUIRE(cs_overhead >= 0.0,
                 "context-switch overhead must be non-negative, got ",
                 cs_overhead);
}

double
PsCpu::ratePerJob(std::size_t n) const
{
    if (n == 0)
        return 0.0;
    const double share =
        n <= nCores
            ? 1.0
            : static_cast<double>(nCores) / static_cast<double>(n);
    const double excess =
        n > nCores ? static_cast<double>(n - nCores) : 0.0;
    const double efficiency =
        1.0 / (1.0 +
               threadOverhead * static_cast<double>(configuredThreads) +
               csOverhead * excess);
    return share * efficiency;
}

void
PsCpu::advance()
{
    // Progress only accrues outside stop-the-world windows. pause()
    // always advances first, so any [lastUpdate, now] interval overlaps
    // at most the tail of one pause.
    const double effective_start = std::max(
        lastUpdate, std::min(pausedUntil, sim.now()));
    const double elapsed = sim.now() - effective_start;
    lastUpdate = sim.now();
    if (elapsed <= 0.0 || jobs.empty())
        return;
    const double progress = elapsed * ratePerJob(jobs.size());
    for (auto &job : jobs)
        job.remaining -= progress;
}

void
PsCpu::reschedule()
{
    if (pending != 0) {
        sim.cancel(pending);
        pending = 0;
    }
    if (jobs.empty())
        return;
    double min_remaining = std::numeric_limits<double>::infinity();
    for (const auto &job : jobs)
        min_remaining = std::min(min_remaining, job.remaining);
    min_remaining = std::max(min_remaining, 0.0);
    const double rate = ratePerJob(jobs.size());
    WCNN_ENSURE(rate > 0.0, "processor-sharing rate collapsed to ", rate,
                " with ", jobs.size(), " jobs");
    const double resume =
        std::max(0.0, pausedUntil - sim.now());
    pending = sim.schedule(resume + min_remaining / rate, [this] {
        pending = 0;
        onCompletion();
    });
}

void
PsCpu::pause(double duration)
{
    WCNN_REQUIRE(duration >= 0.0, "pause duration must be non-negative, got ",
                 duration);
    advance();
    const double new_end = sim.now() + duration;
    if (new_end > pausedUntil) {
        totalPaused += new_end - std::max(pausedUntil, sim.now());
        pausedUntil = new_end;
    }
    reschedule();
}

void
PsCpu::onCompletion()
{
    advance();
    // Collect every job that has (numerically) finished. Completion
    // events never nest, so the member scratch vector is free here.
    for (std::size_t i = 0; i < jobs.size();) {
        if (jobs[i].remaining <= workEpsilon) {
            finished.push_back(std::move(jobs[i].done));
            jobs[i] = std::move(jobs.back());
            jobs.pop_back();
        } else {
            ++i;
        }
    }
    reschedule();
    // Callbacks last: they may re-enter execute().
    for (auto &fn : finished)
        fn();
    finished.clear();
}

void
PsCpu::execute(double demand, Callback done)
{
    WCNN_REQUIRE(demand > 0.0, "CPU demand must be positive, got ", demand);
    advance();
    totalDemand += demand;
    jobs.push_back(Job{demand, std::move(done)});
    reschedule();
}

} // namespace sim
} // namespace wcnn

/**
 * @file
 * Processor-sharing CPU model for the middle tier.
 *
 * The paper's middle-tier host is a 4-socket dual-core Xeon with
 * Hyper-Threading (Table 1): 16 logical processors. We model the app
 * server's CPU as an egalitarian processor-sharing station with c
 * logical cores: when n jobs are runnable each receives min(1, c/n) of a
 * core, degraded by two overhead terms —
 *
 *  * a context-switch term growing with the excess of runnable jobs over
 *    cores (thrashing when pools are oversized), and
 *  * a per-configured-thread term modeling the JVM-side cost of large
 *    thread pools (stack footprint, GC root scanning), which the paper's
 *    Java app server exhibits and which creates the interior optima of
 *    Figs. 7 and 8.
 *
 * The implementation is the classic event-driven PS simulation: remaining
 * work is advanced lazily at every arrival/departure and the next
 * completion is rescheduled.
 */

#ifndef WCNN_SIM_CPU_HH
#define WCNN_SIM_CPU_HH

#include <cstdint>
#include <vector>

#include "sim/simulator.hh"

namespace wcnn {
namespace sim {

/**
 * Egalitarian processor-sharing CPU with overheads.
 */
class PsCpu
{
  public:
    /**
     * @param sim             Owning simulator.
     * @param cores           Logical core count (> 0).
     * @param thread_overhead Efficiency tax per configured app-server
     *                        thread (see setConfiguredThreads()).
     * @param cs_overhead     Efficiency tax per runnable job beyond the
     *                        core count.
     */
    PsCpu(Simulator &sim, std::size_t cores, double thread_overhead,
          double cs_overhead);

    /**
     * Tell the CPU how many worker threads the app server has configured
     * in total; the per-thread overhead term scales with this even when
     * threads are idle.
     *
     * @param n Total configured thread count across all pools.
     */
    void setConfiguredThreads(std::size_t n) { configuredThreads = n; }

    /**
     * Submit a CPU burst. The callback fires when the demand has been
     * fully served under processor sharing.
     *
     * @param demand Work in CPU-seconds (> 0).
     * @param done   Completion callback.
     */
    void execute(double demand, Callback done);

    /**
     * Stop-the-world pause: no job makes progress until now + duration
     * (models JVM garbage collection; the paper's workload runs on a
     * commercial Java application server). Overlapping pauses extend to
     * the later end.
     *
     * @param duration Pause length in seconds (>= 0).
     */
    void pause(double duration);

    /** Total stop-the-world time issued so far. */
    double pausedTime() const { return totalPaused; }

    /** Runnable job count right now. */
    std::size_t activeJobs() const { return jobs.size(); }

    /** Total CPU-seconds of demand accepted so far. */
    double demandAccepted() const { return totalDemand; }

    /**
     * Current per-job service rate (CPU-seconds per second), exposed for
     * tests of the contention model.
     */
    double currentRate() const { return ratePerJob(jobs.size()); }

    /** Logical core count. */
    std::size_t cores() const { return nCores; }

  private:
    struct Job
    {
        double remaining;
        Callback done;
    };

    /** Per-job progress rate with n runnable jobs. */
    double ratePerJob(std::size_t n) const;

    /** Apply elapsed progress to all jobs. */
    void advance();

    /** (Re)schedule the completion event for the smallest remaining. */
    void reschedule();

    /** Completion event handler. */
    void onCompletion();

    Simulator &sim;
    std::size_t nCores;
    double threadOverhead;
    double csOverhead;
    std::size_t configuredThreads = 0;

    std::vector<Job> jobs;
    /** onCompletion()'s finished callbacks, reused across events. */
    std::vector<Callback> finished;
    double lastUpdate = 0.0;
    EventId pending = 0;
    double totalDemand = 0.0;
    /** End of the current stop-the-world window (if in the future). */
    double pausedUntil = 0.0;
    double totalPaused = 0.0;
};

} // namespace sim
} // namespace wcnn

#endif // WCNN_SIM_CPU_HH

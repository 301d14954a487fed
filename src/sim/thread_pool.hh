/**
 * @file
 * App-server execute queue (thread pool).
 *
 * The paper's configuration parameters are the thread counts assigned to
 * three execute queues inside the commercial Java application server:
 * the mfg queue (manufacturing domain), the web queue (web front end)
 * and the default queue ("the rest"). A pool holds a fixed number of
 * worker threads and a FIFO backlog; a work item occupies one thread
 * from dispatch until its asynchronous completion callback runs (threads
 * are held across DB calls and cross-queue hops, as in a real app
 * server).
 *
 * A configured size of 0 is floored to 1 worker — the real server's
 * queues always keep at least one execute thread; the paper's samples
 * include default-queue size 0.
 */

#ifndef WCNN_SIM_THREAD_POOL_HH
#define WCNN_SIM_THREAD_POOL_HH

#include <cstddef>
#include <deque>
#include <string>

#include "numeric/stats.hh"
#include "sim/simulator.hh"

namespace wcnn {
namespace sim {

/**
 * Fixed-size worker pool with bounded FIFO backlog.
 */
class ThreadPool
{
  public:
    /**
     * A work item: invoked with a completion thunk that the item must
     * call exactly once when it is finished (possibly much later, after
     * asynchronous sub-steps).
     */
    using Work = InlineFunction<void(Callback done)>;

    /**
     * @param sim         Owning simulator (used for timestamps only).
     * @param name        Queue name for diagnostics.
     * @param threads     Configured thread count; floored to 1.
     * @param backlog_cap Maximum queued items before submissions are
     *                    rejected (models the server's overload guard).
     */
    ThreadPool(Simulator &sim, std::string name, std::size_t threads,
               std::size_t backlog_cap);

    /**
     * Submit a work item.
     *
     * @param work Item body.
     * @retval true  Item dispatched or queued.
     * @retval false Backlog full; item rejected (counted as a drop).
     */
    bool submit(Work work);

    /** Effective worker count (configured floored to 1). */
    std::size_t threads() const { return nThreads; }

    /** Workers currently occupied. */
    std::size_t busy() const { return nBusy; }

    /** Items waiting in the backlog. */
    std::size_t queued() const { return backlog.size(); }

    /** Items rejected because the backlog was full. */
    std::size_t dropped() const { return nDropped; }

    /** Items whose completion callback has run. */
    std::size_t completed() const { return nCompleted; }

    /** Distribution of time spent waiting in the backlog (seconds). */
    const numeric::RunningStats &queueDelay() const { return waitStats; }

    /** Queue name. */
    const std::string &name() const { return poolName; }

  private:
    struct Pending
    {
        Work work;
        double enqueueTime;
    };

    /** Occupy a worker and start an item. */
    void dispatch(Work work, double enqueue_time);

    /** Completion callback: free the worker, pull from the backlog. */
    void onItemDone();

    Simulator &sim;
    std::string poolName;
    std::size_t nThreads;
    std::size_t backlogCap;

    std::size_t nBusy = 0;
    std::size_t nDropped = 0;
    std::size_t nCompleted = 0;
    std::deque<Pending> backlog;
    numeric::RunningStats waitStats;
};

} // namespace sim
} // namespace wcnn

#endif // WCNN_SIM_THREAD_POOL_HH

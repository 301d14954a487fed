/**
 * @file
 * Middle-tier application server.
 *
 * Routes each injected transaction to its execute queue (mfg queue for
 * manufacturing, web queue for the three dealer classes), then walks it
 * through the app-server flow while holding the worker thread:
 *
 *   CPU burst -> synchronous DB call -> CPU burst -> thread released.
 *
 * Purchase and manage transactions additionally dispatch an internal
 * work item (order message processing) to the default queue — the queue
 * that "handles the rest" (paper section 4). The dispatch is
 * asynchronous (the web thread is not held across it), but the
 * transaction only counts as complete when both its web flow and its
 * work item have finished, so an under-provisioned default queue
 * inflates dealer purchase/manage response times without touching the
 * web pool's capacity or the CPU load of the other classes. That
 * isolation is what yields the paper's parallel-slopes behaviour of the
 * mfg response time against the default queue (Fig. 4) alongside the
 * default-queue valleys of purchase/manage (Fig. 7).
 */

#ifndef WCNN_SIM_APP_SERVER_HH
#define WCNN_SIM_APP_SERVER_HH

#include <cstddef>
#include <deque>
#include <vector>

#include "numeric/rng.hh"
#include "sim/collector.hh"
#include "sim/cpu.hh"
#include "sim/database.hh"
#include "sim/thread_pool.hh"
#include "sim/txn.hh"
#include "sim/workload.hh"

namespace wcnn {
namespace sim {

/** Terminal outcome of a request, for completion listeners. */
enum class TxnOutcome
{
    Completed, ///< both branches finished; counted if within limits
    Failed,    ///< work-item dispatch rejected; never completes
    Rejected,  ///< bounced off a full primary queue
};

/**
 * Transaction orchestrator over the CPU, DB and thread-pool resources.
 */
class AppServer
{
  public:
    /** Callback fired once per request at its terminal event. */
    using TerminalListener =
        InlineFunction<void(const Request &, TxnOutcome)>;

    /**
     * @param sim          Owning simulator.
     * @param cpu          Shared middle-tier CPU.
     * @param db           Backend database.
     * @param mfg_pool     Manufacturing execute queue.
     * @param web_pool     Web front-end execute queue.
     * @param default_pool Default execute queue.
     * @param params       Demand model.
     * @param collector    Measurement sink.
     * @param rng          Generator for per-transaction demand draws.
     */
    AppServer(Simulator &sim, PsCpu &cpu, Database &db,
              ThreadPool &mfg_pool, ThreadPool &web_pool,
              ThreadPool &default_pool, const WorkloadParams &params,
              Collector &collector, numeric::Rng rng);

    /**
     * Accept one injected request; may reject it immediately when the
     * target queue's backlog is full.
     *
     * @param req Injected request.
     */
    void handle(const Request &req);

    /**
     * Install a listener fired exactly once per request when its fate
     * is decided (completed / failed / rejected). Closed-loop drivers
     * use this to resume the issuing user's think cycle.
     */
    void
    setTerminalListener(TerminalListener listener)
    {
        onTerminal = std::move(listener);
    }

    /** Transactions rejected at their primary queue. */
    std::size_t primaryRejects() const { return nPrimaryRejects; }

    /** Transactions whose default-queue work item was rejected. */
    std::size_t auxRejects() const { return nAuxRejects; }

  private:
    /**
     * Sampled demands and bookkeeping for one in-flight transaction.
     * Flows are pooled: taken from a free list in handle() and returned
     * exactly once, at the transaction's terminal event.
     */
    struct Flow
    {
        Request req;
        const TxnProfile *profile = nullptr;
        /** Thunk releasing the primary worker thread. */
        Callback threadDone;
        /** Thunk releasing the default-queue worker thread. */
        Callback auxDone;
        double cpuPre = 0.0, cpuPost = 0.0, dbDemand = 0.0, auxCpu = 0.0,
               auxDb = 0.0;
        /** Branches (web flow / work item) still outstanding. */
        std::size_t pendingBranches = 1;
        /** Work-item dispatch was rejected; never record completion. */
        bool failed = false;
    };

    /** Take a reset Flow from the pool. */
    Flow *acquireFlow();

    /** Return a Flow to the pool; its continuations are dropped. */
    void releaseFlow(Flow *flow);

    /** Lognormal draw with the configured CoV around a mean. */
    double sampleDemand(double mean);

    /** Stage 1+2: pre CPU then main DB call. */
    void startFlow(Flow *flow);

    /** Asynchronous default-queue work item for purchase/manage. */
    void dispatchAux(Flow *flow);

    /** Final CPU burst of the web/mfg branch; releases the thread. */
    void finishPrimary(Flow *flow);

    /** Join point: records completion once every branch finished. */
    void branchDone(Flow *flow);

    /**
     * Allocation-driven garbage collection: every gcTxnInterval-th
     * processed request triggers a stop-the-world CPU pause.
     */
    void maybeCollectGarbage();

    Simulator &sim;
    PsCpu &cpu;
    Database &db;
    ThreadPool &mfgPool;
    ThreadPool &webPool;
    ThreadPool &defaultPool;
    const WorkloadParams &params;
    Collector &collector;
    numeric::Rng rng;

    std::size_t nPrimaryRejects = 0;
    std::size_t nAuxRejects = 0;
    std::size_t txnsSinceGc = 0;
    TerminalListener onTerminal;
    /** Every Flow ever created (stable addresses); some are free. */
    std::deque<Flow> flowStore;
    std::vector<Flow *> freeFlows;
};

} // namespace sim
} // namespace wcnn

#endif // WCNN_SIM_APP_SERVER_HH

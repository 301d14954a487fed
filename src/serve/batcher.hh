/**
 * @file
 * Micro-batching prediction queue.
 *
 * Concurrent predict requests are coalesced into batched
 * Mlp::forward(Matrix) sweeps: a dispatcher thread collects request
 * groups until either `maxBatch` input rows are pending or the oldest
 * group has waited `maxDelayUs`, concatenates them into one matrix,
 * runs a single batched forward (fanned across a core::ThreadPool for
 * multi-core hosts), and scatters the result rows back to the
 * waiting callers. Batching amortizes the per-request costs — one
 * dispatcher wakeup, one set of layer allocations, one standardize
 * pass per *batch* instead of per request — which is where the
 * serving throughput comes from (see bench/bench_serve.cc).
 *
 * Determinism contract: a batched run is bit-identical to calling
 * ModelBundle::predict per request. This holds by construction at
 * every batch composition and thread count: Mlp::forward(Matrix) and
 * the standardizer transforms perform the same scalar operations in
 * the same order per row regardless of which other rows share the
 * matrix, and the thread-pool fan-out splits rows into
 * index-addressed chunks (core/parallel.hh determinism contract).
 * Pinned by tests/serve_batching_test.cc.
 *
 * Admission control: the queue is bounded in rows; a submit that
 * would exceed the bound throws serve::Overloaded instead of
 * stalling (the wire layer turns that into a typed error frame).
 *
 * Shutdown: stop() refuses new work and *drains* — every group
 * already queued is still executed, so a graceful server shutdown
 * never abandons an accepted request.
 */

#ifndef WCNN_SERVE_BATCHER_HH
#define WCNN_SERVE_BATCHER_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>

#include "core/parallel.hh"
#include "numeric/matrix.hh"
#include "serve/registry.hh"

namespace wcnn {
namespace serve {

/** Batching knobs. */
struct BatcherOptions
{
    /**
     * Row budget per batched forward. 1 disables coalescing (every
     * request runs its own forward — the per-request baseline).
     */
    std::size_t maxBatch = 64;

    /**
     * Longest time the oldest pending group waits for the batch to
     * fill before the dispatcher runs a partial batch.
     */
    std::int64_t maxDelayUs = 200;

    /** Queued-row bound; beyond it submits throw Overloaded. */
    std::size_t maxQueueRows = 4096;

    /**
     * Thread-pool runners for the batched forward; 1 keeps the
     * forward on the dispatcher thread (no pool synchronization),
     * 0 selects core::hardwareThreads().
     */
    std::size_t threads = 1;
};

/**
 * Outcome of one queued group, carried through the future as plain
 * data. Errors cross the dispatcher→caller thread boundary as
 * (kind, message) pairs, never as exception objects: an exception
 * object shared between threads via set_exception/rethrow races its
 * own destruction (the reference count lives in uninstrumented
 * libstdc++), which ThreadSanitizer rightly flags.
 */
struct BatchOutcome
{
    /** One prediction row per input row (when ok). */
    numeric::Matrix ys;
    /** False when the group failed; kind/message describe why. */
    bool ok = true;
    /** wcnn::Error kind ("serve", "serve.bad_request", ...). */
    std::string kind;
    /** Bare error message (no kind prefix). */
    std::string message;
};

/**
 * Future of one submitMany() group. get() blocks for the outcome and
 * re-throws failures as freshly constructed typed exceptions in the
 * *calling* thread (see BatchOutcome).
 */
class PredictionFuture
{
  public:
    /** An empty future (no group); valid() is false. */
    PredictionFuture() = default;

    /**
     * Block for the group's predictions.
     *
     * @return One prediction row per input row.
     * @throws The typed serve error family reconstructed from the
     *         outcome: BadRequest, NoModelError, ServeError, or a
     *         plain wcnn::Error for foreign kinds.
     */
    numeric::Matrix get();

    /** Whether the future still owns a pending outcome. */
    bool valid() const { return inner.valid(); }

  private:
    friend class MicroBatcher;
    explicit PredictionFuture(std::future<BatchOutcome> f)
        : inner(std::move(f))
    {
    }
    std::future<BatchOutcome> inner;
};

/**
 * Coalesces concurrent predict requests into batched forwards.
 */
class MicroBatcher
{
  public:
    /** Exact counters (mutex-protected, read via stats()). */
    struct Stats
    {
        /** Accepted submit calls. */
        std::uint64_t groups = 0;
        /** Accepted input rows. */
        std::uint64_t rows = 0;
        /** Batched forwards executed. */
        std::uint64_t batches = 0;
        /** Submits rejected by admission control. */
        std::uint64_t rejected = 0;
        /** Largest row count of any single batch. */
        std::size_t maxBatchRows = 0;
    };

    /**
     * @param registry Source of the active bundle; must outlive the
     *                 batcher.
     * @param options  Batching knobs.
     */
    MicroBatcher(BundleRegistry &registry, BatcherOptions options = {});

    /** Stops and drains (see stop()). */
    ~MicroBatcher();

    MicroBatcher(const MicroBatcher &) = delete;
    MicroBatcher &operator=(const MicroBatcher &) = delete;

    /**
     * Queue a group of configurations for batched prediction. The
     * group is never split across batches but may be coalesced with
     * other groups; the future resolves with one prediction row per
     * input row, bit-identical to per-request ModelBundle::predict.
     *
     * @param xs One configuration per row; cols() must match the
     *           active bundle.
     * @return Future of the prediction matrix; its get() throws a
     *         ServeError if the model is swapped to an incompatible
     *         arity before execution or the forward faults.
     * @param on_ready Optional completion hook, a test seam: invoked
     *        exactly once from the dispatcher thread, strictly
     *        *after* the group's future became ready (success or
     *        failure, including the shutdown drain). A hook that
     *        blocks holds the dispatcher, which is how
     *        serve_batching_test's queue-bound case keeps the queue
     *        full deterministically. The serving path passes none.
     * @throws Overloaded   When the queue row bound is exceeded.
     * @throws NoModelError When no bundle is deployed.
     * @throws BadRequest   On arity mismatch or an empty group.
     * @throws ServeError   When the batcher is stopped.
     */
    PredictionFuture submitMany(numeric::Matrix xs,
                                std::function<void()> on_ready = {});

    /**
     * Convenience single-request path: one-row group, blocking.
     *
     * @param x Configuration vector.
     * @return Prediction vector.
     * @throws Same as submitMany, plus any execution error.
     */
    numeric::Vector predictOne(const numeric::Vector &x);

    /**
     * Refuse new submits and block until every queued group has
     * executed and the dispatcher has exited. Idempotent.
     */
    void stop();

    /** Exact counters so far. */
    Stats stats() const;

    /** Rows currently queued (racy snapshot; exact when quiescent). */
    std::size_t queuedRows() const;

  private:
    /** One submitMany() call. */
    struct Group
    {
        numeric::Matrix xs;
        std::promise<BatchOutcome> promise;
        /** Completion hook; see submitMany(). May be empty. */
        std::function<void()> notify;
        /** Queue-entry timestamp (telemetry queue-wait histogram). */
        std::int64_t enqueuedNs = 0;
    };

    /** Fulfil a group's promise, then fire its completion hook. */
    static void resolve(Group &group, BatchOutcome outcome);

    void dispatchLoop();

    /** Run one coalesced batch outside the queue lock. */
    void executeBatch(std::vector<Group> &batch, std::size_t batch_rows);

    BundleRegistry &registry;
    const BatcherOptions opts;
    core::ThreadPool pool;

    mutable std::mutex mutex;
    std::condition_variable queueReady;
    std::deque<Group> queue;
    std::size_t pendingRows = 0;
    bool stopping = false;
    Stats counters;

    std::thread dispatcher;
};

} // namespace serve
} // namespace wcnn

#endif // WCNN_SERVE_BATCHER_HH

/**
 * @file
 * InferenceServer: the TCP serving front end, and the ServeCore it
 * answers every request through.
 *
 * Composition (one instance each, shared pieces living in ServeCore):
 *
 *     TCP accept loop ──► connection threads ──► MicroBatcher ──► Mlp
 *            │                    │        ▲
 *            │                    ▼        │ (misses only)
 *       BundleRegistry      PredictionCache
 *
 * Request path: a connection thread reads, feeds the bytes to its
 * Session state machine (session.hh), which decodes every complete
 * frame, answers cache hits immediately, and submits the misses as
 * ONE group to the micro-batcher; the thread then writes the staged
 * replies — so a client that pipelines K requests gets them coalesced
 * into one batched forward. Responses are written back in request
 * order regardless of how they were computed (cache, batch) — the
 * wire contract is per-request, the batching is invisible except in
 * throughput.
 *
 * One blocking thread per connection is the only transport; DESIGN.md
 * §5.7 has the measurement behind that choice.
 *
 * Fault tolerance:
 *  - Admission control, not backpressure-by-stalling: a full predict
 *    queue throws serve::Overloaded which becomes a typed error frame
 *    the client can retry on; a full connection table answers the
 *    surplus connection with that same error frame and closes it.
 *  - Malformed wire bytes get a "serve.protocol" error frame and the
 *    connection is closed; the server itself never dies on garbage.
 *  - WCNN_FAILPOINT sites (serve.accept / serve.read / serve.decode /
 *    serve.predict / serve.write) let the chaos harness inject faults
 *    at every stage; the contract — pinned by chaos_serve_test — is
 *    that a fault only ever costs the affected request or connection.
 *  - Hot swap: deploy() atomically installs a new bundle and clears
 *    the prediction cache; in-flight batches finish on the bundle
 *    snapshot they started with.
 *
 * Shutdown is a graceful drain: stop() closes the listener, lets each
 * connection thread finish (and answer) the requests it has already
 * read, joins them, then drains the batcher queue.
 */

#ifndef WCNN_SERVE_SERVER_HH
#define WCNN_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hh"
#include "serve/batcher.hh"
#include "serve/cache.hh"
#include "serve/net/socket.hh"
#include "serve/registry.hh"

namespace wcnn {
namespace serve {

/** Full server configuration. */
struct ServeOptions
{
    /** Local address to bind. */
    std::string host = "127.0.0.1";

    /** Port to bind; 0 picks an ephemeral port (see port()). */
    std::uint16_t port = 0;

    /** listen(2) backlog. */
    int backlog = 32;

    /** Concurrent connection bound; the surplus is rejected typed. */
    std::size_t maxConnections = 32;

    /** Idle connection timeout; <= 0 disables. */
    int idleTimeoutMs = 30000;

    /**
     * Whether a connection handler may coalesce the requests it has
     * buffered into one batcher group and their responses into one
     * write. False forces one group per request and one write(2) per
     * response — a server with no batching anywhere in its path,
     * the honest per-request baseline `wcnn bench-serve` and
     * bench_serve compare micro-batching against.
     */
    bool coalesceFrames = true;

    /** Micro-batching knobs. */
    BatcherOptions batch;

    /** Prediction cache knobs; capacity 0 disables caching. */
    CacheOptions cache;
};

/** Wire-level counters (exact). */
struct ServeStats
{
    /** Connections accepted and handled. */
    std::uint64_t accepted = 0;
    /** Connections rejected by the connection bound. */
    std::uint64_t rejectedConnections = 0;
    /** Predict requests answered (success or typed error). */
    std::uint64_t requests = 0;
    /** Requests answered with an error frame. */
    std::uint64_t errors = 0;
    /** Pings answered. */
    std::uint64_t pings = 0;
    /** Observe feedback records accepted (Ack sent). */
    std::uint64_t observations = 0;
    /** Observations dropped because the lifecycle sink faulted. */
    std::uint64_t droppedObservations = 0;
    /** Connections currently being served. */
    std::size_t activeConnections = 0;
};

/**
 * Transport-independent serving core: bundle registry, prediction
 * cache, micro-batcher, and exact wire counters. Every request the
 * server answers — over the wire or in process — goes through this
 * one object.
 */
class ServeCore
{
  public:
    /** @param options The owning server's configuration. */
    explicit ServeCore(const ServeOptions &options);

    ServeCore(const ServeCore &) = delete;
    ServeCore &operator=(const ServeCore &) = delete;

    /** Atomically install a bundle and invalidate the cache. */
    std::uint64_t deploy(BundlePtr bundle);

    /** Snapshot of the active bundle (null before the first deploy). */
    BundlePtr active() const { return bundles.active(); }

    /** Version of the active bundle (bumps on every deploy). */
    std::uint64_t version() const { return bundles.version(); }

    /**
     * Lifecycle feedback sink: (x, predicted, observed) per accepted
     * Observe request. Calls are serialized under one lock, so the
     * order the sink sees *is* the record-stream order the lifecycle
     * determinism contract is stated over.
     */
    using ObservationSink = std::function<void(
        const numeric::Vector &x, const numeric::Vector &predicted,
        const numeric::Vector &observed)>;

    /** Install (or clear, with {}) the observation sink. */
    void setObservationSink(ObservationSink sink);

    /**
     * Handle one Observe feedback record: validate, predict x on the
     * incumbent bundle (direct, deterministic bits — no cache, no
     * batcher), and forward (x, predicted, observed) to the sink.
     * The reply a client sees never depends on the sink: a sink
     * fault is contained here (record dropped, counter bumped), so
     * shadow evaluation is invisible on the wire by construction.
     *
     * @throws NoModelError before the first deploy, BadRequest when
     *         x or y disagree with the bundle's dimensions.
     */
    void observe(const numeric::Vector &x, const numeric::Vector &y);

    /** In-process predict: cache, then micro-batcher on a miss. */
    numeric::Vector predict(const numeric::Vector &x);

    /** In-process batched predict (row i of the result = row i in). */
    numeric::Matrix predictMany(const numeric::Matrix &xs);

    /** Result callback: (request index, prediction). */
    using OnResult =
        std::function<void(std::size_t, const numeric::Vector &)>;
    /** Error callback: (request index, typed error). */
    using OnError =
        std::function<void(std::size_t, const wcnn::Error &)>;

    /**
     * Answer a coalesced span of request vectors: admission failures,
     * arity errors and cache hits inline, misses as one batcher group
     * (or one group per request when coalescing is off — all of them
     * submitted before the first is awaited). Results and typed
     * errors come back through the callbacks; blocks until every
     * request is answered.
     */
    void answerRequests(const std::vector<numeric::Vector> &requests,
                        const OnResult &on_result,
                        const OnError &on_error);

    /** Refuse new batches and drain the queued ones (shutdown). */
    void stopBatcher() { queue.stop(); }

    /** Micro-batcher counters. */
    MicroBatcher::Stats batcherStats() const { return queue.stats(); }

    /** Prediction cache counters. */
    PredictionCache::Stats cacheStats() const { return cache.stats(); }

    // Exact wire counters, bumped by the server and the Session.
    void noteAccepted();
    void noteRejectedConnection();
    void notePing();
    void noteProtocolError();
    void noteFrameError();

    /** Counter snapshot (activeConnections left 0; the server fills
     *  it). */
    ServeStats statsSnapshot() const;

  private:
    /**
     * One in-flight batcher group of answerRequestsAsync(): the
     * future plus everything finishGroup() needs to deliver it —
     * which request slot each row answers, the cache keys, and the
     * bundle version guarding the cache inserts.
     */
    struct PendingGroup
    {
        PredictionFuture future;
        /** Request index answered by each future row, in row order. */
        std::vector<std::size_t> slots;
        /** Cache key per row (the request vectors themselves). */
        std::vector<numeric::Vector> keys;
        /** Bundle version at submit; inserts skip on a raced swap. */
        std::uint64_t version = 0;
        /** answerRequestsAsync() entry time (latency telemetry). */
        std::int64_t startNs = 0;
    };

    /**
     * Deliver everything answerable now through the callbacks and
     * submit the cache misses to the batcher without waiting; the
     * returned groups are handed to finishGroup() in order.
     */
    std::vector<PendingGroup> answerRequestsAsync(
        const std::vector<numeric::Vector> &requests,
        const OnResult &on_result, const OnError &on_error);

    /**
     * Deliver a group's rows through the callbacks (blocks until it
     * resolved), inserting cacheable results under the version guard.
     */
    void finishGroup(PendingGroup &group, const OnResult &on_result,
                     const OnError &on_error);

    const ServeOptions &opts;
    BundleRegistry bundles;
    PredictionCache cache;
    MicroBatcher queue;

    /** Serializes sink installs and calls (record-stream order). */
    mutable std::mutex sinkMutex;
    ObservationSink sink;

    std::atomic<std::uint64_t> nAccepted{0};
    std::atomic<std::uint64_t> nRejected{0};
    std::atomic<std::uint64_t> nRequests{0};
    std::atomic<std::uint64_t> nErrors{0};
    std::atomic<std::uint64_t> nPings{0};
    std::atomic<std::uint64_t> nObservations{0};
    std::atomic<std::uint64_t> nDroppedObservations{0};
};

/**
 * Batched, cached, fault-tolerant TCP inference server
 * (thread-per-connection).
 */
class InferenceServer
{
  public:
    /** Wire-level counters (exact). */
    using Stats = ServeStats;

    /**
     * Construct the serving stack (no socket yet; see start()). The
     * batcher dispatcher starts immediately, so the in-process
     * predict() path works without start().
     */
    explicit InferenceServer(ServeOptions options = {});

    /** stop()s. */
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /** Atomically install a bundle (hot swap); see ServeCore. */
    std::uint64_t deploy(BundlePtr bundle)
    {
        return core.deploy(std::move(bundle));
    }

    /** Snapshot of the active bundle (null before the first deploy). */
    BundlePtr active() const { return core.active(); }

    /** Version of the active bundle (bumps on every deploy). */
    std::uint64_t version() const { return core.version(); }

    /** Install the lifecycle observation sink; see ServeCore. */
    void setObservationSink(ServeCore::ObservationSink sink)
    {
        core.setObservationSink(std::move(sink));
    }

    /** In-process predict, bit-identical to ModelBundle::predict. */
    numeric::Vector predict(const numeric::Vector &x)
    {
        return core.predict(x);
    }

    /** In-process batched predict. */
    numeric::Matrix predictMany(const numeric::Matrix &xs)
    {
        return core.predictMany(xs);
    }

    /**
     * Bind the listener and start accepting connections.
     *
     * @throws ServeError when the address cannot be bound.
     */
    void start();

    /**
     * Graceful drain: stop accepting, let every connection finish its
     * buffered requests, join all threads, drain the batcher.
     * Idempotent.
     */
    void stop();

    /** Bound port; valid after start(). */
    std::uint16_t port() const { return boundPort; }

    /** Whether start() succeeded and stop() has not run. */
    bool running() const { return accepting.load(); }

    /** Exact wire counters. */
    Stats stats() const;

    /** Micro-batcher counters. */
    MicroBatcher::Stats batcherStats() const
    {
        return core.batcherStats();
    }

    /** Prediction cache counters. */
    PredictionCache::Stats cacheStats() const
    {
        return core.cacheStats();
    }

    /** The configuration the server was built with. */
    const ServeOptions &options() const { return opts; }

  private:
    /** One live connection: its thread plus a completion flag. */
    struct Connection
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    /** Connections currently being served. */
    std::size_t activeConnections() const;

    void acceptLoop();
    void handleConnection(net::TcpStream stream);

    /** Join and erase finished connection threads. */
    void reapConnections();

    const ServeOptions opts;
    ServeCore core;

    std::unique_ptr<net::TcpListener> listener;
    std::uint16_t boundPort = 0;
    std::thread acceptor;
    std::atomic<bool> accepting{false};
    std::atomic<bool> stopping{false};

    mutable std::mutex connMutex;
    std::vector<std::unique_ptr<Connection>> connections;
};

} // namespace serve
} // namespace wcnn

#endif // WCNN_SERVE_SERVER_HH

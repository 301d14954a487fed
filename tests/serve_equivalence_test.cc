/**
 * @file
 * The serving byte gate: the server's reply streams against an
 * in-process oracle.
 *
 * The repo's discipline for a serving path is "pinned to the bytes":
 * each scripted client's whole response stream must equal the
 * concatenation the protocol codec produces for the answers the
 * bundle gives in process — encodeResponse(bundle->predict(x)),
 * encodePong(), and the expected typed error frames — on binary
 * framing and JSON lines, pipelined bursts under different TCP
 * fragmentations, typed per-request errors, wire garbage and
 * connection-limit rejections. Hot swap under load is pinned
 * against the bundles it swaps between. Where hard byte-identity
 * would require fixing TCP segmentation itself (queue-overload
 * timing), the suite pins the ordering *semantics* instead: every
 * request gets an in-order typed outcome.
 *
 * The scripted clients write raw protocol bytes, half-close, and
 * slurp the response stream to EOF — no client-library smarts hide a
 * server-side difference.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/standardizer.hh"
#include "nn/mlp.hh"
#include "numeric/rng.hh"
#include "serve/bundle.hh"
#include "serve/error.hh"
#include "serve/net/client.hh"
#include "serve/net/protocol.hh"
#include "serve/net/socket.hh"
#include "serve/server.hh"

namespace net = wcnn::serve::net;

using wcnn::data::Standardizer;
using wcnn::nn::Activation;
using wcnn::nn::InitRule;
using wcnn::nn::LayerSpec;
using wcnn::nn::Mlp;
using wcnn::numeric::Rng;
using wcnn::numeric::Vector;
using wcnn::serve::BundlePtr;
using wcnn::serve::InferenceServer;
using wcnn::serve::ModelBundle;
using wcnn::serve::Overloaded;
using wcnn::serve::ServeOptions;

namespace {

constexpr const char *kHost = "127.0.0.1";

BundlePtr
makeBundle(std::uint64_t seed = 7)
{
    Rng rng(seed);
    Mlp mlp(3,
            {LayerSpec{6, Activation::logistic(1.0)},
             LayerSpec{2, Activation::identity()}},
            InitRule::SmallUniform, rng);
    return std::make_shared<const ModelBundle>(ModelBundle::fromParts(
        std::move(mlp), Standardizer::identity(3),
        Standardizer::identity(2), {"a", "b", "c"}, {"u", "v"},
        "equivalence-" + std::to_string(seed)));
}

/** One scripted client: raw byte chunks written in order, with an
 *  optional pause between chunks to force separate server reads. */
struct ClientScript
{
    std::vector<net::Bytes> chunks;
    int interChunkDelayMs = 0;
};

/** Append-concatenate. */
void
append(net::Bytes &to, const net::Bytes &piece)
{
    to.insert(to.end(), piece.begin(), piece.end());
}

net::Bytes
fromString(const std::string &text)
{
    return net::Bytes(text.begin(), text.end());
}

/** Split a byte string into fixed-size pieces. */
std::vector<net::Bytes>
splitChunks(const net::Bytes &all, std::size_t piece)
{
    std::vector<net::Bytes> out;
    for (std::size_t off = 0; off < all.size(); off += piece) {
        const std::size_t end = std::min(off + piece, all.size());
        out.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(off),
                         all.begin() + static_cast<std::ptrdiff_t>(end));
    }
    return out;
}

/**
 * Run every script concurrently against a fresh server: write the
 * chunks, half-close, slurp the response stream to EOF. Returns one
 * raw byte stream per client.
 */
std::vector<net::Bytes>
runScripts(const ServeOptions &opts, const BundlePtr &bundle,
           const std::vector<ClientScript> &scripts)
{
    InferenceServer server(opts);
    server.deploy(bundle);
    server.start();

    std::vector<net::Bytes> streams(scripts.size());
    std::vector<std::thread> threads;
    threads.reserve(scripts.size());
    for (std::size_t i = 0; i < scripts.size(); ++i) {
        threads.emplace_back([&, i] {
            net::TcpStream stream =
                net::TcpStream::connect(kHost, server.port());
            for (const net::Bytes &chunk : scripts[i].chunks) {
                stream.writeAll(chunk.data(), chunk.size());
                if (scripts[i].interChunkDelayMs > 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(
                            scripts[i].interChunkDelayMs));
            }
            stream.shutdownWrite();
            std::uint8_t buf[4096];
            std::size_t n = 0;
            while (stream.readSome(buf, sizeof(buf), n, 10000) ==
                   net::ReadStatus::Data)
                streams[i].insert(streams[i].end(), buf, buf + n);
        });
    }
    for (std::thread &t : threads)
        t.join();
    server.stop();
    return streams;
}

/** Oracle reply of one request: the in-process prediction, framed. */
net::Bytes
expectedResponse(const BundlePtr &bundle, const Vector &x)
{
    return net::encodeResponse(bundle->predict(x));
}

/** Oracle JSON reply of one request. */
net::Bytes
expectedJsonResponse(const BundlePtr &bundle, const Vector &x)
{
    return fromString(net::formatJsonResponse(bundle->predict(x)));
}

} // namespace

TEST(ServeEquivalenceTest,
     BinaryPipeliningIsChunkingInvariantAndByteIdentical)
{
    const BundlePtr bundle = makeBundle();

    // The same 8 pipelined requests, three TCP fragmentations: one
    // frame per write, everything in one write, and 7-byte shreds
    // (every length prefix split across segments).
    Rng rng(101);
    net::Bytes all;
    net::Bytes expected;
    std::vector<net::Bytes> perFrame;
    for (int i = 0; i < 8; ++i) {
        const Vector x{rng.uniform(-2, 2), rng.uniform(-2, 2),
                       rng.uniform(-2, 2)};
        perFrame.push_back(net::encodeRequest(x));
        append(all, perFrame.back());
        append(expected, expectedResponse(bundle, x));
    }
    const std::vector<ClientScript> scripts = {
        ClientScript{perFrame, 1},
        ClientScript{{all}, 0},
        ClientScript{splitChunks(all, 7), 1},
    };

    // The response stream depends on the frames sent, never on TCP
    // segmentation: every chunking yields the oracle bytes.
    const std::vector<net::Bytes> streams =
        runScripts(ServeOptions{}, bundle, scripts);
    for (std::size_t i = 0; i < streams.size(); ++i)
        EXPECT_EQ(streams[i], expected) << "chunking " << i;
}

TEST(ServeEquivalenceTest, MixedPingsAndRequestsKeepArrivalOrder)
{
    const BundlePtr bundle = makeBundle();
    const Vector x0{0.5, -1.0, 1.5};
    const Vector x1{1.5, 0.25, -0.5};
    const Vector x2{-0.75, 2.0, 0.0};

    net::Bytes burst;
    append(burst, net::encodeRequest(x0));
    append(burst, net::encodePing());
    append(burst, net::encodeRequest(x1));
    append(burst, net::encodePing());
    append(burst, net::encodeRequest(x2));

    // Strict arrival order: a pong never overtakes the response of a
    // request received before it.
    net::Bytes expected;
    append(expected, expectedResponse(bundle, x0));
    append(expected, net::encodePong());
    append(expected, expectedResponse(bundle, x1));
    append(expected, net::encodePong());
    append(expected, expectedResponse(bundle, x2));

    const std::vector<net::Bytes> streams =
        runScripts(ServeOptions{}, bundle, {ClientScript{{burst}, 0}});
    EXPECT_EQ(streams[0], expected);
}

TEST(ServeEquivalenceTest, TypedErrorsAndGarbageAreByteIdentical)
{
    const BundlePtr bundle = makeBundle();

    // good, wrong-arity, good, then wire garbage: the responses and
    // the bad-request error keep arrival order, the protocol error
    // for the garbage comes last, then the connection closes.
    const Vector good0{1.0, 2.0, 3.0};
    const Vector good1{6.0, 7.0, 8.0};
    const net::Bytes garbage = fromString("zz"); // not a frame
    net::Bytes burst;
    append(burst, net::encodeRequest(good0));
    append(burst, net::encodeRequest({4.0, 5.0})); // arity 2 != 3
    append(burst, net::encodeRequest(good1));
    append(burst, garbage);

    const net::DecodeResult bad =
        net::tryDecode(garbage.data(), garbage.size());
    ASSERT_EQ(bad.status, net::DecodeStatus::Malformed);
    net::Bytes expected;
    append(expected, expectedResponse(bundle, good0));
    append(expected,
           net::encodeError("serve.bad_request",
                            "request has 2 inputs, bundle expects 3"));
    append(expected, expectedResponse(bundle, good1));
    append(expected, net::encodeError("serve.protocol", bad.error));

    const std::vector<net::Bytes> streams =
        runScripts(ServeOptions{}, bundle, {ClientScript{{burst}, 0}});
    EXPECT_EQ(streams[0], expected);
}

TEST(ServeEquivalenceTest, JsonLinesModeIsByteIdentical)
{
    const BundlePtr bundle = makeBundle();

    // Client 0: predict / ping / wrong-arity / predict — all valid
    // JSON, so the connection stays open until the half-close.
    net::Bytes lines0;
    append(lines0,
           fromString("{\"op\":\"predict\",\"x\":[0.5,-1.0,1.5]}\n"));
    append(lines0, fromString("{\"op\":\"ping\"}\n"));
    append(lines0, fromString("{\"op\":\"predict\",\"x\":[1.0]}\n"));
    append(lines0,
           fromString("{\"op\":\"predict\",\"x\":[2.0,0.25,-0.5]}\n"));
    net::Bytes expected0;
    append(expected0, expectedJsonResponse(bundle, {0.5, -1.0, 1.5}));
    append(expected0, fromString(net::formatJsonPong()));
    append(expected0,
           fromString(net::formatJsonError(
               "serve.bad_request",
               "request has 1 inputs, bundle expects 3")));
    append(expected0, expectedJsonResponse(bundle, {2.0, 0.25, -0.5}));

    // Client 1: one good line, then a line with an embedded NUL — a
    // protocol error that closes the connection.
    std::string nul_line = "{\"op\":\"predict\",";
    nul_line += '\0';
    nul_line += "\"x\":[1,2,3]}";
    net::Bytes lines1;
    append(lines1,
           fromString("{\"op\":\"predict\",\"x\":[1.0,1.0,1.0]}\n"));
    append(lines1, fromString(nul_line + "\n"));
    std::string nul_error;
    try {
        (void)net::parseJsonLine(nul_line);
    } catch (const wcnn::serve::ProtocolError &error) {
        nul_error = net::formatJsonError(
            error.kind(), wcnn::serve::bareErrorMessage(error));
    }
    ASSERT_FALSE(nul_error.empty()) << "NUL line must not parse";
    net::Bytes expected1;
    append(expected1, expectedJsonResponse(bundle, {1.0, 1.0, 1.0}));
    append(expected1, fromString(nul_error));

    const std::vector<ClientScript> scripts = {
        ClientScript{splitChunks(lines0, 11), 1}, // shredded lines
        ClientScript{{lines1}, 0},
    };
    const std::vector<net::Bytes> streams =
        runScripts(ServeOptions{}, bundle, scripts);
    EXPECT_EQ(streams[0], expected0);
    EXPECT_EQ(streams[1], expected1);
}

TEST(ServeEquivalenceTest, ConnectionLimitRejectionIsByteIdentical)
{
    const BundlePtr bundle = makeBundle();
    ServeOptions opts;
    opts.maxConnections = 1;
    InferenceServer server(opts);
    server.deploy(bundle);
    server.start();

    // Occupy the single slot, with a round trip to guarantee the
    // connection is fully registered.
    net::ServeClient occupant =
        net::ServeClient::connect(kHost, server.port());
    (void)occupant.predict({1.0, 2.0, 3.0});

    // The surplus connection gets the typed rejection, then EOF.
    net::TcpStream surplus = net::TcpStream::connect(kHost, server.port());
    net::Bytes stream;
    std::uint8_t buf[4096];
    std::size_t n = 0;
    while (surplus.readSome(buf, sizeof(buf), n, 10000) ==
           net::ReadStatus::Data)
        stream.insert(stream.end(), buf, buf + n);

    EXPECT_EQ(stream, net::encodeError("serve.overloaded",
                                       "connection limit of 1 reached"));
    EXPECT_EQ(server.stats().rejectedConnections, 1u);
    server.stop();
}

TEST(ServeEquivalenceTest, HotSwapUnderLoadIsIdenticalOnBothEngines)
{
    const BundlePtr bundleA = makeBundle(21);
    const BundlePtr bundleB = makeBundle(22);

    // Deterministic request set, reused in both phases so the swap's
    // cache invalidation is also exercised.
    Rng rng(33);
    std::vector<Vector> xs;
    for (int i = 0; i < 6; ++i)
        xs.push_back({rng.uniform(-2, 2), rng.uniform(-2, 2),
                      rng.uniform(-2, 2)});

    InferenceServer server;
    server.deploy(bundleA);
    server.start();

    // A churn client pipelines throughout the swap: every answer must
    // be bit-exact under SOME deployed bundle, and once B appears, A
    // never comes back (monotone transition).
    std::atomic<bool> churn_stop{false};
    std::string churn_failure;
    const Vector churn_x{0.125, -0.25, 0.5};
    std::thread churn([&] {
        const Vector wantA = bundleA->predict(churn_x);
        const Vector wantB = bundleB->predict(churn_x);
        bool saw_b = false;
        try {
            net::ServeClient client =
                net::ServeClient::connect(kHost, server.port());
            while (!churn_stop.load()) {
                const Vector got = client.predict(churn_x);
                const bool is_a = got == wantA;
                const bool is_b = got == wantB;
                if (!is_a && !is_b) {
                    churn_failure = "answer under no bundle";
                    return;
                }
                if (is_b)
                    saw_b = true;
                else if (saw_b && is_a) {
                    churn_failure = "bundle A after bundle B";
                    return;
                }
            }
        } catch (const wcnn::Error &e) {
            churn_failure = e.what();
        }
    });

    net::ServeClient client = net::ServeClient::connect(kHost, server.port());
    for (const Vector &x : xs)
        EXPECT_EQ(client.predict(x), bundleA->predict(x)) << "phase A";

    server.deploy(bundleB);

    for (const Vector &x : xs)
        EXPECT_EQ(client.predict(x), bundleB->predict(x)) << "phase B";

    churn_stop.store(true);
    churn.join();
    EXPECT_EQ(churn_failure, "");
    server.stop();
}

TEST(ServeEquivalenceTest, QueueOverloadKeepsOrderingSemantics)
{
    // Hard byte-identity here would require fixing TCP segmentation
    // itself (which read chunk a request lands in decides its batch
    // group). The pinned contract is the ordering SEMANTICS: every
    // pipelined request gets an in-order outcome — a bit-exact
    // response or a typed serve.overloaded error — and a queue this
    // small must overload.
    const BundlePtr bundle = makeBundle();
    ServeOptions opts;
    opts.cache.capacity = 0; // misses only: every request queues
    opts.batch.maxQueueRows = 2;
    opts.batch.maxBatch = 64;
    opts.batch.maxDelayUs = 250000; // hold groups: keep rows pending

    Rng rng(55);
    std::vector<Vector> xs;
    for (int i = 0; i < 16; ++i)
        xs.push_back({rng.uniform(-2, 2), rng.uniform(-2, 2),
                      rng.uniform(-2, 2)});

    InferenceServer server(opts);
    server.deploy(bundle);
    server.start();

    net::ServeClient client =
        net::ServeClient::connect(kHost, server.port(), 30000);
    for (const Vector &x : xs)
        client.sendPredict(x);

    int overloaded = 0;
    int exact = 0;
    for (const Vector &x : xs) {
        try {
            EXPECT_EQ(client.readPrediction(), bundle->predict(x));
            ++exact;
        } catch (const Overloaded &) {
            ++overloaded;
        }
    }
    // Every request answered in order, and the 16-request burst
    // cannot fit a 2-row queue: overload must have fired.
    EXPECT_EQ(exact + overloaded, 16);
    EXPECT_GE(overloaded, 1);
    server.stop();
}

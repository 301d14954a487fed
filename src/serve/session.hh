/**
 * @file
 * Per-connection protocol state machine, transport-independent.
 *
 * A Session owns everything about one connection that is *not* I/O:
 * the receive buffer, the binary-vs-JSON mode detection, incremental
 * frame decoding, coalescing consecutive requests into one batcher
 * group, and the strict request-order staging of replies. The
 * connection thread feeds it raw received bytes via consume(), then
 * calls collect() to take the staged replies — each element is
 * exactly one write(2)'s worth, so the per-request baseline
 * (coalesceFrames = false) keeps its one-write-per-response shape.
 *
 * consume() answers every complete frame before it returns: the
 * requests it decoded are handed to ServeCore::answerRequests, which
 * blocks for the batcher, so collect() only ever takes finished
 * replies.
 *
 * Reply ordering contract: replies are staged strictly in frame
 * arrival order — a pong or a protocol-error frame never overtakes
 * the responses of requests received before it, no matter how the
 * reads were fragmented. Each request reserves its outbox slot at
 * decode time and its prediction fills that slot, so the reply
 * stream depends only on the frames sent, never on TCP segmentation
 * (tests/serve_equivalence_test.cc pins the bytes).
 *
 * Failpoints: the "serve.decode" site lives here (one check per
 * decoded frame/line); "serve.read"/"serve.write" belong to the
 * connection loop and "serve.predict" to the MicroBatcher.
 */

#ifndef WCNN_SERVE_SESSION_HH
#define WCNN_SERVE_SESSION_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/net/protocol.hh"
#include "serve/server.hh"

namespace wcnn {
namespace serve {

/**
 * Protocol state machine of one connection.
 */
class Session
{
  public:
    /** What the transport must do after a consume() call. */
    enum class Verdict
    {
        Continue,        ///< keep reading
        CloseAfterFlush, ///< stop reading; close after the writes
    };

    /**
     * @param serve_core Shared serving core answering the requests.
     * @param coalesce   ServeOptions::coalesceFrames of the server.
     */
    Session(ServeCore &serve_core, bool coalesce);

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Feed received bytes and answer every complete frame/line now
     * buffered: pongs, acks and typed errors are staged immediately,
     * requests go through the serving core (blocking for the
     * batcher) and land in the slots reserved at decode time.
     *
     * @throws ServeError from the "serve.decode" failpoint; typed
     *         request failures never throw — they become error
     *         frames/lines in the outbox.
     */
    Verdict consume(const std::uint8_t *data, std::size_t n);

    /**
     * Append every staged reply, in frame-arrival order, to `writes`
     * (one element per intended write(2); a single coalesced element
     * when coalescing is on) and empty the outbox.
     */
    void collect(std::vector<net::Bytes> &writes);

  private:
    enum class Mode
    {
        Detect, ///< no bytes seen yet
        Binary, ///< length-prefixed frames
        Json,   ///< newline-delimited JSON
    };

    Verdict processBinary();
    Verdict processJson();

    /** Answer one Observe record inline (Ack or typed error). */
    void handleObserve(const numeric::Vector &x,
                       const numeric::Vector &y, bool json);

    /** Stage a finished reply at the tail of the outbox. */
    void stageDone(net::Bytes bytes);

    /** Reserve an outbox slot for a request reply; returns its index. */
    std::size_t reserveSlot();

    /** Answer decoded requests into their reserved outbox slots;
     *  `slots[i]` is the outbox index of request i's reply. */
    void answer(const std::vector<numeric::Vector> &requests,
                const std::vector<std::size_t> &slots, bool json);

    ServeCore &core;
    const bool coalesce;
    Mode mode = Mode::Detect;
    net::Bytes rx;      ///< undecoded bytes (binary mode)
    std::string rxText; ///< unconsumed text (JSON mode)

    std::vector<net::Bytes> outbox; ///< staged replies, arrival order
};

} // namespace serve
} // namespace wcnn

#endif // WCNN_SERVE_SESSION_HH

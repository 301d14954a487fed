#include "session.hh"

#include <utility>

#include "core/failpoint.hh"
#include "serve/error.hh"

namespace wcnn {
namespace serve {

namespace {

net::Bytes
toBytes(const std::string &s)
{
    return net::Bytes(s.begin(), s.end());
}

} // namespace

Session::Session(ServeCore &serve_core, bool coalesce_frames)
    : core(serve_core), coalesce(coalesce_frames)
{
}

Session::Verdict
Session::consume(const std::uint8_t *data, std::size_t n)
{
    if (mode == Mode::Detect) {
        if (n == 0)
            return Verdict::Continue;
        // Mode detection: the first byte a connection sends. '{'
        // selects JSON lines, anything else must open a binary frame.
        mode = net::looksLikeJson(data[0]) ? Mode::Json : Mode::Binary;
    }
    if (mode == Mode::Json) {
        rxText.append(reinterpret_cast<const char *>(data), n);
        return processJson();
    }
    rx.insert(rx.end(), data, data + n);
    return processBinary();
}

Session::Verdict
Session::processBinary()
{
    // Decode every complete frame currently buffered; consecutive
    // requests coalesce into one micro-batch group. Replies are
    // staged per frame, in arrival order — a request reserves its
    // outbox slot here and answer() fills it.
    std::vector<numeric::Vector> requests;
    std::vector<std::size_t> slots;
    bool close_after_flush = false;

    while (!close_after_flush) {
        WCNN_FAILPOINT("serve.decode",
                       throw ServeError("injected: serve.decode"));
        net::DecodeResult r = net::tryDecode(rx.data(), rx.size());
        if (r.status == net::DecodeStatus::NeedMore)
            break;
        if (r.status == net::DecodeStatus::Malformed) {
            stageDone(net::encodeError("serve.protocol", r.error));
            core.noteProtocolError();
            close_after_flush = true;
            break;
        }
        rx.erase(rx.begin(),
                 rx.begin() + static_cast<std::ptrdiff_t>(r.consumed));
        switch (r.frame.type) {
        case net::FrameType::Request:
            slots.push_back(reserveSlot());
            requests.push_back(std::move(r.frame.values));
            break;
        case net::FrameType::Ping:
            core.notePing();
            stageDone(net::encodePong());
            break;
        case net::FrameType::Observe:
            handleObserve(r.frame.values, r.frame.observed,
                          /*json=*/false);
            break;
        default:
            // Clients must not send server-side frame types.
            stageDone(net::encodeError(
                "serve.protocol", "unexpected frame type from client"));
            core.noteFrameError();
            close_after_flush = true;
            break;
        }
    }

    if (!requests.empty())
        answer(requests, slots, /*json=*/false);

    return close_after_flush ? Verdict::CloseAfterFlush
                             : Verdict::Continue;
}

Session::Verdict
Session::processJson()
{
    // Cut every complete line out of the buffer, then answer the
    // batch of lines together (same coalescing as binary mode).
    std::vector<numeric::Vector> requests;
    std::vector<std::size_t> slots;
    bool close_after_flush = false;

    std::size_t newline = rxText.find('\n');
    while (newline != std::string::npos && !close_after_flush) {
        std::string line = rxText.substr(0, newline);
        rxText.erase(0, newline + 1);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty()) {
            newline = rxText.find('\n');
            continue;
        }
        WCNN_FAILPOINT("serve.decode",
                       throw ServeError("injected: serve.decode"));
        try {
            net::Frame frame = net::parseJsonLine(line);
            if (frame.type == net::FrameType::Ping) {
                core.notePing();
                stageDone(toBytes(net::formatJsonPong()));
            } else if (frame.type == net::FrameType::Observe) {
                handleObserve(frame.values, frame.observed,
                              /*json=*/true);
            } else {
                slots.push_back(reserveSlot());
                requests.push_back(std::move(frame.values));
            }
        } catch (const ProtocolError &error) {
            core.noteProtocolError();
            stageDone(toBytes(net::formatJsonError(
                error.kind(), bareErrorMessage(error))));
            close_after_flush = true;
        }
        newline = rxText.find('\n');
    }

    if (!requests.empty())
        answer(requests, slots, /*json=*/true);

    return close_after_flush ? Verdict::CloseAfterFlush
                             : Verdict::Continue;
}

void
Session::handleObserve(const numeric::Vector &x,
                       const numeric::Vector &y, bool json)
{
    // Observations are answered inline, in arrival order: the direct
    // incumbent forward is synchronous and never enters the batcher,
    // so the Ack (or typed validation error) stages immediately behind
    // the request slots reserved ahead of it.
    try {
        core.observe(x, y);
        stageDone(json ? toBytes(net::formatJsonAck())
                       : net::encodeAck());
    } catch (const wcnn::Error &error) {
        core.noteFrameError();
        stageDone(json ? toBytes(net::formatJsonError(
                             error.kind(), bareErrorMessage(error)))
                       : net::encodeError(error.kind(),
                                          bareErrorMessage(error)));
    }
}

void
Session::stageDone(net::Bytes bytes)
{
    outbox.push_back(std::move(bytes));
}

std::size_t
Session::reserveSlot()
{
    outbox.emplace_back();
    return outbox.size() - 1;
}

void
Session::answer(const std::vector<numeric::Vector> &requests,
                const std::vector<std::size_t> &slots, bool json)
{
    core.answerRequests(
        requests,
        [this, &slots, json](std::size_t i, const numeric::Vector &y) {
            outbox[slots[i]] = json
                                   ? toBytes(net::formatJsonResponse(y))
                                   : net::encodeResponse(y);
        },
        [this, &slots, json](std::size_t i, const wcnn::Error &error) {
            outbox[slots[i]] =
                json ? toBytes(net::formatJsonError(
                           error.kind(), bareErrorMessage(error)))
                     : net::encodeError(error.kind(),
                                        bareErrorMessage(error));
        });
}

void
Session::collect(std::vector<net::Bytes> &writes)
{
    if (coalesce) {
        net::Bytes out;
        for (const net::Bytes &reply : outbox)
            out.insert(out.end(), reply.begin(), reply.end());
        if (!out.empty())
            writes.push_back(std::move(out));
    } else {
        // Per-request baseline: one write(2) per reply frame, like a
        // server with no batching anywhere.
        for (net::Bytes &reply : outbox)
            writes.push_back(std::move(reply));
    }
    outbox.clear();
}

} // namespace serve
} // namespace wcnn

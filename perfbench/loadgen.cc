#include "loadgen.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include <sys/prctl.h>

#include "core/telemetry.hh"
#include "numeric/rng.hh"
#include "serve/error.hh"
#include "serve/net/client.hh"
#include "serve/net/protocol.hh"

namespace perfbench {

namespace serve = wcnn::serve;
namespace telemetry = wcnn::core::telemetry;

namespace {

/** Receivers start this long before the first due time. */
constexpr std::int64_t kLeadNs = 2000000;

bool
sameBits(const wcnn::numeric::Vector &got, const double *want,
         std::size_t n)
{
    return got.size() == n &&
           std::memcmp(got.data(), want, n * sizeof(double)) == 0;
}

} // namespace

std::vector<Scheduled>
makeSchedule(double rate, double seconds, double observe_fraction,
             const LoadTarget &target, std::uint64_t seed,
             const std::function<std::uint32_t(bool)> &next_key)
{
    std::vector<Scheduled> out;
    const auto horizon = static_cast<std::int64_t>(seconds * 1e9);
    wcnn::numeric::Rng predict_rng =
        wcnn::numeric::Rng::stream(seed, 1);
    double t = 0.0;
    std::size_t n = 0;
    while (true) {
        t += predict_rng.exponential(1e9 / rate);
        if (t >= static_cast<double>(horizon))
            break;
        out.push_back(Scheduled{
            static_cast<std::int64_t>(t), 0,
            static_cast<std::uint8_t>(n % target.predictConnections),
            false});
        ++n;
    }
    if (target.observeConnection && observe_fraction > 0.0) {
        wcnn::numeric::Rng observe_rng =
            wcnn::numeric::Rng::stream(seed, 2);
        t = 0.0;
        while (true) {
            t += observe_rng.exponential(1e9 / (rate * observe_fraction));
            if (t >= static_cast<double>(horizon))
                break;
            out.push_back(Scheduled{
                static_cast<std::int64_t>(t), 0,
                static_cast<std::uint8_t>(target.predictConnections),
                true});
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Scheduled &a, const Scheduled &b) {
                         return a.dueNs < b.dueNs;
                     });
    // Keys are drawn in time order so one key stream serves both kinds.
    for (Scheduled &s : out)
        s.key = next_key(s.observe);
    return out;
}

PhaseResult
runPhase(const LoadTarget &target, const KeyPool &pool,
         const std::vector<Scheduled> &schedule)
{
    PhaseResult result;
    // Short sleeps wake on time instead of up to 50 µs late.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const std::size_t n_conn =
        target.predictConnections + (target.observeConnection ? 1 : 0);

    std::vector<serve::net::ServeClient> clients;
    clients.reserve(n_conn);
    for (std::size_t c = 0; c < n_conn; ++c) {
        clients.push_back(serve::net::ServeClient::connect(
            "127.0.0.1", target.port, target.replyTimeoutMs));
    }

    // Replies arrive in send order per connection, so each receiver
    // knows in advance which scheduled request its k-th frame answers.
    std::vector<std::vector<std::uint32_t>> order(n_conn);
    for (std::size_t i = 0; i < schedule.size(); ++i)
        order[schedule[i].conn].push_back(static_cast<std::uint32_t>(i));

    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> latency(schedule.size(), nan);
    std::vector<std::uint8_t> mismatch(schedule.size(), 0);
    std::atomic<std::uint64_t> received{0};
    std::vector<std::string> errors(n_conn);
    const std::int64_t t0 = telemetry::nowNs() + kLeadNs;
    const std::size_t dim = pool.outputDim;

    std::vector<std::thread> receivers;
    receivers.reserve(n_conn);
    for (std::size_t c = 0; c < n_conn; ++c) {
        receivers.emplace_back([&, c] {
            serve::net::ServeClient &client = clients[c];
            try {
                for (const std::uint32_t idx : order[c]) {
                    const serve::net::Frame frame = client.readFrame();
                    const std::int64_t now = telemetry::nowNs();
                    const Scheduled &s = schedule[idx];
                    const double lat_us =
                        static_cast<double>(now - t0 - s.dueNs) * 1e-3;
                    if (s.observe) {
                        if (frame.type == serve::net::FrameType::Ack)
                            latency[idx] = lat_us;
                    } else {
                        if (frame.type ==
                            serve::net::FrameType::Response) {
                            if (sameBits(frame.values,
                                         &pool.expected[s.key * dim],
                                         dim))
                                latency[idx] = lat_us;
                            else
                                mismatch[idx] = 1;
                        }
                        received.fetch_add(1,
                                           std::memory_order_relaxed);
                    }
                }
            } catch (const wcnn::Error &e) {
                // Timeout or closed connection: every unanswered
                // request of this connection counts as failed.
                errors[c] = e.what();
            }
        });
    }

    // Sender: this thread. Everything due is written in one call per
    // connection, so a late sender catches up instead of falling
    // further behind.
    std::vector<double> late(schedule.size(), 0.0);
    std::vector<std::vector<std::uint8_t>> out(n_conn);
    std::uint64_t sent_predicts = 0;
    std::size_t i = 0;
    try {
        while (i < schedule.size()) {
            // Sleep, never spin: the sender must not take a CPU from
            // the receivers. A wake-up comes some tens of µs late; the
            // lateness is measured and charged to the requests.
            const std::int64_t due = t0 + schedule[i].dueNs;
            const std::int64_t now = telemetry::nowNs();
            if (due > now) {
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(due - now));
                continue;
            }
            std::size_t j = i;
            for (; j < schedule.size() && t0 + schedule[j].dueNs <= now;
                 ++j) {
                const Scheduled &s = schedule[j];
                std::vector<std::uint8_t> &buf = out[s.conn];
                if (s.observe) {
                    // y equals the served prediction: no drift.
                    const double *x = &pool.inputs[s.key * pool.inputDim];
                    const double *y = &pool.expected[s.key * dim];
                    const serve::net::Bytes frame = serve::net::encodeObserve(
                        wcnn::numeric::Vector(x, x + pool.inputDim),
                        wcnn::numeric::Vector(y, y + dim));
                    buf.insert(buf.end(), frame.begin(), frame.end());
                } else {
                    const auto at = pool.requestBytes.begin();
                    buf.insert(buf.end(),
                               at + static_cast<std::ptrdiff_t>(
                                        pool.requestOffset[s.key]),
                               at + static_cast<std::ptrdiff_t>(
                                        pool.requestOffset[s.key + 1]));
                }
                late[j] = static_cast<double>(now - t0 - s.dueNs) * 1e-3;
                if (!s.observe)
                    ++sent_predicts;
            }
            for (std::size_t c = 0; c < n_conn; ++c) {
                if (out[c].empty())
                    continue;
                clients[c].rawSend(out[c].data(), out[c].size());
                out[c].clear();
            }
            const std::uint64_t done =
                received.load(std::memory_order_relaxed);
            result.maxInFlight =
                std::max(result.maxInFlight, sent_predicts - done);
            i = j;
        }
    } catch (const wcnn::Error &e) {
        // The server went away mid-phase: stop sending; receivers time
        // out and the unsent remainder counts as failed below.
        result.error = e.what();
    }
    for (std::thread &t : receivers)
        t.join();
    for (serve::net::ServeClient &client : clients)
        client.close();
    for (const std::string &e : errors) {
        if (result.error.empty() && !e.empty())
            result.error = e;
    }

    result.lateUs.reserve(i);
    for (std::size_t k = 0; k < schedule.size(); ++k) {
        const Scheduled &s = schedule[k];
        if (k < i)
            result.lateUs.push_back(late[k]);
        const bool ok = !std::isnan(latency[k]);
        // A failed request misses any latency limit.
        const double lat =
            ok ? latency[k] : std::numeric_limits<double>::infinity();
        if (s.observe) {
            ++result.observeSent;
            ++(ok ? result.observeAcked : result.observeFailed);
            result.observeLatencyUs.push_back(lat);
        } else {
            ++result.sent;
            ++(ok ? result.completed : result.failed);
            result.mismatches += mismatch[k];
            result.latencyUs.push_back(lat);
        }
    }
    return result;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

std::vector<double>
windowQuantiles(const std::vector<double> &values, std::size_t window,
                double q)
{
    if (values.size() <= window)
        return {quantile(values, q)};
    std::vector<double> out;
    for (std::size_t at = 0; at + window <= values.size(); at += window) {
        out.push_back(quantile(
            std::vector<double>(
                values.begin() + static_cast<std::ptrdiff_t>(at),
                values.begin() + static_cast<std::ptrdiff_t>(at + window)),
            q));
    }
    return out;
}

} // namespace perfbench

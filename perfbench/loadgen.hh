/**
 * @file
 * Open-loop load generator for a `wcnn serve` process.
 *
 * Requests follow a precomputed Poisson schedule and are timed from
 * the moment each was due, so a stall in the server also charges the
 * requests queued behind it. The calling thread sends; one receiver
 * thread per connection reads replies, which the server returns in
 * order per connection. Every reply is compared bit for bit with the
 * expected output computed in process. Sockets are touched only
 * through serve::net::ServeClient.
 */

#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Inputs a phase may send: pre-encoded request frames, the inputs
 * (Observe frames are encoded when sent) and the bits each reply
 * must equal.
 */
struct KeyPool
{
    std::size_t outputDim = 0;
    /** Concatenated encoded Request frames. */
    std::vector<std::uint8_t> requestBytes;
    std::vector<std::size_t> requestOffset; ///< size() == keys + 1
    std::size_t inputDim = 0;
    /** Inputs, keys x inputDim, row-major (for Observe frames). */
    std::vector<double> inputs;
    /** Expected outputs, keys x outputDim, row-major. */
    std::vector<double> expected;
};

/** One scheduled request. */
struct Scheduled
{
    std::int64_t dueNs = 0;  ///< offset from the phase start
    std::uint32_t key = 0;   ///< index into the KeyPool
    std::uint8_t conn = 0;   ///< connection index
    bool observe = false;    ///< Observe frame (else Predict)
};

/** Outcome of one phase. */
struct PhaseResult
{
    std::uint64_t sent = 0;       ///< predicts sent
    std::uint64_t completed = 0;  ///< predicts answered correctly
    std::uint64_t failed = 0;     ///< errors, mismatches, no reply
    std::uint64_t mismatches = 0; ///< answered with other bits
    std::uint64_t observeSent = 0;
    std::uint64_t observeAcked = 0;
    std::uint64_t observeFailed = 0;
    /** Latency from due time, µs, per predict in send order; +inf
     *  for a failed one. */
    std::vector<double> latencyUs;
    /** Latency from due time, µs, per observe in send order; +inf
     *  for a failed one. */
    std::vector<double> observeLatencyUs;
    /** How late the sender ran, µs, one sample per request. */
    std::vector<double> lateUs;
    /** Most predicts sent but not yet answered at one time. */
    std::uint64_t maxInFlight = 0;
    /** First transport error seen, if any. */
    std::string error;
};

/** Connections and reply timeout for a run of phases. */
struct LoadTarget
{
    std::uint16_t port = 0;
    std::size_t predictConnections = 2;
    bool observeConnection = true;
    int replyTimeoutMs = 5000;
};

/**
 * Build a schedule: Poisson predicts at `rate` (alternating over the
 * predict connections) plus Poisson observes at `rate *
 * observe_fraction` on the observe connection, for `seconds`.
 * `next_key(is_observe)` picks each request's key.
 */
std::vector<Scheduled>
makeSchedule(double rate, double seconds, double observe_fraction,
             const LoadTarget &target, std::uint64_t seed,
             const std::function<std::uint32_t(bool)> &next_key);

/**
 * Run one open-loop phase on fresh connections: send `schedule`,
 * collect and check every reply, close.
 */
PhaseResult runPhase(const LoadTarget &target, const KeyPool &pool,
                     const std::vector<Scheduled> &schedule);

/** q-quantile (0..1) of values by linear interpolation; 0 if empty. */
double quantile(std::vector<double> values, double q);

/**
 * The q-quantile of each consecutive window of `window` samples (a
 * shorter last window is dropped unless it is the only one). The
 * median of these is robust to a burst of host noise in one window.
 */
std::vector<double> windowQuantiles(const std::vector<double> &values,
                                    std::size_t window, double q);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH

/**
 * @file
 * In-memory spans recorded by the benchmark around its calls into the
 * wcnn layers.
 *
 * A span is (name, start, end, parent). Spans nest per thread: a span
 * opened while another is open on the same thread records it as its
 * parent. Every span covers calls into one layer only, so a layer's
 * time is the sum of its spans. Recording is off unless the run is
 * traced; timing itself always goes through the telemetry clock, so
 * an untraced run still gets every number it reports.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

/** One finished span. */
struct SpanRecord
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the parent span in the recorder, or -1. */
    std::int64_t parent = -1;
};

/** Process-wide span store. */
class SpanRecorder
{
  public:
    /** The recorder every Span writes to. */
    static SpanRecorder &instance();

    /** Turn recording on or off (off by default). */
    void setEnabled(bool on);
    bool enabled() const { return on; }

    /** Copy of every recorded span, in begin order. */
    std::vector<SpanRecord> spans() const;

    /** Write one JSON object per span. */
    void writeJsonl(std::ostream &os) const;

    /** Open a span; returns its index, or -1 when disabled. */
    std::int64_t open(const std::string &name, std::int64_t start_ns);

    /** Close the span `index` at `end_ns`. */
    void close(std::int64_t index, std::int64_t end_ns);

  private:
    SpanRecorder() = default;
    bool on = false;
};

/**
 * RAII span. Measures its own duration whether or not recording is
 * on, so callers can read seconds() after close().
 */
class Span
{
  public:
    explicit Span(std::string name);
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    ~Span();

    /** End the span now (idempotent); returns its duration. */
    double close();

  private:
    std::int64_t index = -1;
    std::int64_t startNs = 0;
    double elapsed = -1.0;
};

/** Run fn inside a span called `name`; returns its seconds. */
double timed(const std::string &name, const std::function<void()> &fn);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH

#include "spans.hh"

#include <mutex>
#include <ostream>

#include "core/telemetry.hh"

namespace perfbench {

namespace {

std::mutex gMutex;
std::vector<SpanRecord> gSpans; // guarded by gMutex

/** Innermost open span on this thread (-1 at top level). */
thread_local std::int64_t tCurrent = -1;

} // namespace

SpanRecorder &
SpanRecorder::instance()
{
    static SpanRecorder recorder;
    return recorder;
}

void
SpanRecorder::setEnabled(bool enable)
{
    on = enable;
}

std::vector<SpanRecord>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(gMutex);
    return gSpans;
}

void
SpanRecorder::writeJsonl(std::ostream &os) const
{
    const std::vector<SpanRecord> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        os << "{\"id\":" << i << ",\"name\":\"" << all[i].name
           << "\",\"start_ns\":" << all[i].startNs
           << ",\"end_ns\":" << all[i].endNs
           << ",\"parent\":" << all[i].parent << "}\n";
    }
}

std::int64_t
SpanRecorder::open(const std::string &name, std::int64_t start_ns)
{
    if (!on)
        return -1;
    std::lock_guard<std::mutex> lock(gMutex);
    gSpans.push_back(SpanRecord{name, start_ns, -1, tCurrent});
    tCurrent = static_cast<std::int64_t>(gSpans.size()) - 1;
    return tCurrent;
}

void
SpanRecorder::close(std::int64_t index, std::int64_t end_ns)
{
    if (index < 0)
        return;
    std::lock_guard<std::mutex> lock(gMutex);
    SpanRecord &s = gSpans[static_cast<std::size_t>(index)];
    s.endNs = end_ns;
    tCurrent = s.parent;
}

Span::Span(std::string name)
    : startNs(wcnn::core::telemetry::nowNs())
{
    index = SpanRecorder::instance().open(name, startNs);
}

Span::~Span()
{
    close();
}

double
Span::close()
{
    if (elapsed < 0.0) {
        const std::int64_t end = wcnn::core::telemetry::nowNs();
        elapsed = static_cast<double>(end - startNs) * 1e-9;
        SpanRecorder::instance().close(index, end);
    }
    return elapsed;
}

double
timed(const std::string &name, const std::function<void()> &fn)
{
    Span span(name);
    fn();
    return span.close();
}

} // namespace perfbench

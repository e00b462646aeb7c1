#include "obs/trace_sink.h"

#include <cstdio>
#include <fstream>
#include <ostream>

namespace ceer {
namespace obs {

std::string
chromeJsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default: {
            // Any other control byte must become \u00XX, or the trace
            // document is not valid JSON and Chrome refuses to load it.
            const auto u = static_cast<unsigned char>(c);
            if (u < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x", u);
                out += buffer;
            } else {
                out += c;
            }
            break;
          }
        }
    }
    return out;
}

void
chromeThreadNameEvent(std::ostream &out, int tid,
                      const std::string &name)
{
    char buffer[256];
    std::snprintf(buffer, sizeof buffer,
                  "  {\"name\": \"thread_name\", \"ph\": \"M\", "
                  "\"pid\": 1, \"tid\": %d, \"args\": {\"name\": "
                  "\"%s\"}},\n",
                  tid, chromeJsonEscape(name).c_str());
    out << buffer;
}

void
writeChromeTrace(std::ostream &out, std::span<const TraceSpan> spans,
                 std::span<const std::string> lane_names)
{
    out << "[\n";
    for (std::size_t lane = 0; lane < lane_names.size(); ++lane)
        chromeThreadNameEvent(out, static_cast<int>(lane),
                              lane_names[lane]);
    // One complete ("X") event per span; no comma after the last.
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const TraceSpan &span = spans[i];
        char buffer[512];
        std::snprintf(buffer, sizeof buffer,
                      "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                      "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                      "\"tid\": %d}%s\n",
                      chromeJsonEscape(span.name).c_str(),
                      chromeJsonEscape(span.category).c_str(),
                      span.startUs, span.durationUs, span.lane,
                      i + 1 == spans.size() ? "" : ",");
        out << buffer;
    }
    out << "]\n";
}

TraceSink &
TraceSink::instance()
{
    // Leaked so spans recorded from static destructors stay safe.
    static TraceSink *sink = new TraceSink;
    return *sink;
}

TraceSink::TraceSink() : origin_(std::chrono::steady_clock::now()) {}

double
TraceSink::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
TraceSink::laneForThisThread()
{
    thread_local const int lane =
        nextLane_.fetch_add(1, std::memory_order_relaxed);
    return lane;
}

void
TraceSink::record(TraceSpan span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<TraceSpan>
TraceSink::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::size_t
TraceSink::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void
TraceSink::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

void
TraceSink::writeChromeTrace(std::ostream &out) const
{
    const std::vector<TraceSpan> spans = this->spans();
    int max_lane = -1;
    for (const TraceSpan &span : spans)
        max_lane = span.lane > max_lane ? span.lane : max_lane;
    std::vector<std::string> lane_names;
    for (int lane = 0; lane <= max_lane; ++lane)
        lane_names.push_back("worker " + std::to_string(lane));
    obs::writeChromeTrace(out, spans, lane_names);
}

bool
TraceSink::tryWriteFile(const std::string &path,
                        std::string *error) const
{
    std::ofstream out(path);
    if (!out) {
        if (error)
            *error = "cannot open '" + path + "' for writing";
        return false;
    }
    writeChromeTrace(out);
    out.close();
    if (!out.good()) {
        if (error)
            *error = "write to '" + path + "' failed";
        return false;
    }
    return true;
}

ScopedSpan::ScopedSpan(std::string_view name, std::string_view category)
{
    if (!enabled())
        return;
    armed_ = true;
    name_ = name;
    category_ = category;
    startUs_ = TraceSink::instance().nowUs();
}

ScopedSpan::~ScopedSpan()
{
    if (!armed_)
        return;
    TraceSink &sink = TraceSink::instance();
    TraceSpan span;
    span.name = std::move(name_);
    span.category = std::move(category_);
    span.startUs = startUs_;
    span.durationUs = sink.nowUs() - startUs_;
    span.lane = sink.laneForThisThread();
    sink.record(std::move(span));
}

} // namespace obs
} // namespace ceer

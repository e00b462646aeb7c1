#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "obs/trace_sink.h"
#include "perfbench.h"

namespace perfbench {

namespace {

/** Per-thread state: lane id and the stack of open spans. */
struct ThreadState
{
    int lane = -1;
    std::vector<int> open;
};

thread_local ThreadState t_state;

} // namespace

SpanRecorder &
SpanRecorder::instance()
{
    static SpanRecorder recorder;
    return recorder;
}

SpanRecorder::SpanRecorder() : originUs_(nowSeconds() * 1e6) {}

double
SpanRecorder::nowUs() const
{
    return nowSeconds() * 1e6 - originUs_;
}

int
SpanRecorder::begin(const char *name, std::int64_t request)
{
    ThreadState &state = t_state;
    Span span;
    span.name = name;
    span.parent = state.open.empty() ? -1 : state.open.back();
    // A child without its own request id inherits its parent's.
    int index;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (state.lane < 0)
            state.lane = nextLane_++;
        span.lane = state.lane;
        span.request = request >= 0 || span.parent < 0
                           ? request
                           : spans_[span.parent].request;
        index = static_cast<int>(spans_.size());
        spans_.push_back(std::move(span));
        spans_.back().startUs = nowUs();
    }
    state.open.push_back(index);
    return index;
}

void
SpanRecorder::end(int index)
{
    const double now = nowUs();
    ThreadState &state = t_state;
    if (!state.open.empty() && state.open.back() == index)
        state.open.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].endUs = now;
}

std::vector<double>
SpanRecorder::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_)
        if (span.name == name)
            out.push_back(span.durationUs());
    return out;
}

std::vector<std::vector<int>>
SpanRecorder::childLists() const
{
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<std::size_t>(spans_[i].parent)]
                .push_back(static_cast<int>(i));
    return children;
}

double
SpanRecorder::selfTimeUs(
    std::size_t index,
    const std::vector<std::vector<int>> &children) const
{
    const Span &span = spans_[index];
    // Union of the child intervals, clipped to the parent.
    std::vector<std::pair<double, double>> covered;
    for (int child : children[index]) {
        const Span &c = spans_[static_cast<std::size_t>(child)];
        const double lo = std::max(c.startUs, span.startUs);
        const double hi = std::min(c.endUs, span.endUs);
        if (hi > lo)
            covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double busy = 0.0;
    double reach = span.startUs;
    for (const auto &[lo, hi] : covered) {
        const double from = std::max(lo, reach);
        if (hi > from)
            busy += hi - from;
        reach = std::max(reach, hi);
    }
    return span.durationUs() - busy;
}

std::vector<double>
SpanRecorder::selfTimesUs(const std::string &name) const
{
    const std::vector<std::vector<int>> children = childLists();
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name)
            out.push_back(selfTimeUs(i, children));
    return out;
}

std::vector<std::pair<std::string, double>>
SpanRecorder::layerSelfTimesUs() const
{
    const std::vector<std::vector<int>> children = childLists();
    std::map<std::string, double> layers;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::string &name = spans_[i].name;
        layers[name.substr(0, name.find('.'))] +=
            selfTimeUs(i, children);
    }
    return {layers.begin(), layers.end()};
}

bool
SpanRecorder::writeChromeTrace(const std::string &path,
                               std::string *error) const
{
    std::ofstream out(path);
    if (!out) {
        *error = "cannot open " + path;
        return false;
    }
    out << "[\n";
    for (int lane = 0; lane < nextLane_; ++lane)
        obs::chromeThreadNameEvent(out, lane,
                                   "bench " + std::to_string(lane));
    char buffer[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        const std::string name = obs::chromeJsonEscape(span.name);
        std::snprintf(
            buffer, sizeof buffer,
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
            "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%zu,"
            "\"parent\":%d,\"request\":%lld}}%s\n",
            name.c_str(), name.substr(0, name.find('.')).c_str(),
            span.startUs, span.durationUs(), span.lane, i, span.parent,
            static_cast<long long>(span.request),
            i + 1 == spans_.size() ? "" : ",");
        out << buffer;
    }
    out << "]\n";
    if (!out) {
        *error = "short write to " + path;
        return false;
    }
    return true;
}

} // namespace perfbench

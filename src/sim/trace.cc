#include "sim/trace.h"

#include <algorithm>
#include <ostream>

#include "obs/trace_sink.h"
#include "util/strings.h"

namespace ceer {
namespace sim {

using graph::Device;
using graph::Node;

void
IterationTrace::add(TraceEvent event)
{
    events_.push_back(std::move(event));
}

namespace {

const char *
laneName(int lane)
{
    switch (lane) {
      case 0: return "GPU stream";
      case 1: return "host (CPU ops)";
      case 2: return "synchronization";
    }
    return "?";
}

} // namespace

void
IterationTrace::writeChromeTrace(std::ostream &out) const
{
    // The event lines come from the shared obs chrome-trace helpers
    // (byte-identical to the historical inline formatting; pinned by
    // TraceTest.ChromeTraceUsesSharedWriter).
    out << "[\n";
    // Thread-name metadata per lane.
    for (int lane = 0; lane <= 2; ++lane)
        obs::chromeThreadNameEvent(out, lane, laneName(lane));
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const TraceEvent &event = events_[i];
        obs::chromeCompleteEvent(out, event.name, event.category,
                                 event.startUs, event.durationUs,
                                 event.lane,
                                 i + 1 == events_.size());
    }
    out << "]\n";
}

IterationTrace
traceIteration(const graph::Graph &g, const SimConfig &config)
{
    TrainingSimulator simulator(g, config);
    IterationTrace trace;
    double gpu_cursor = 0.0;
    double cpu_cursor = 0.0;
    const IterationResult result = simulator.runIteration(
        [&](std::span<const double> times_us) {
            for (std::size_t i = 0; i < times_us.size(); ++i) {
                const Node &node = g.nodes()[i];
                TraceEvent event;
                event.name = node.name;
                event.category = graph::opTypeName(node.type);
                event.durationUs = times_us[i];
                if (node.device() == Device::Gpu) {
                    event.lane = 0;
                    event.startUs = gpu_cursor;
                    gpu_cursor += times_us[i];
                } else {
                    event.lane = 1;
                    event.startUs = cpu_cursor;
                    cpu_cursor += times_us[i];
                }
                trace.add(std::move(event));
            }
        });

    TraceEvent sync;
    sync.name = util::format("sync (k=%d)", config.numGpus);
    sync.category = "Communication";
    sync.lane = 2;
    sync.startUs = std::max(gpu_cursor, cpu_cursor);
    sync.durationUs = result.commUs;
    trace.add(std::move(sync));
    trace.setTotalUs(result.totalUs());
    return trace;
}

} // namespace sim
} // namespace ceer

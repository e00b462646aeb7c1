#include "sim/trace.h"

#include <algorithm>
#include <ostream>

#include "util/strings.h"

namespace ceer {
namespace sim {

using graph::Device;
using graph::Node;

void
IterationTrace::add(obs::TraceSpan event)
{
    events_.push_back(std::move(event));
}

void
IterationTrace::writeChromeTrace(std::ostream &out) const
{
    static const std::string lane_names[] = {
        "GPU stream", "host (CPU ops)", "synchronization"};
    obs::writeChromeTrace(out, events_, lane_names);
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
                obs::TraceSpan event;
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

    obs::TraceSpan sync;
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

#include "baselines/baselines.h"

#include "core/predictor.h"
#include "hw/op_cost.h"
#include "util/logging.h"

namespace ceer {
namespace baselines {

const cloud::GpuInstance &
cheapestInstance(const std::vector<cloud::GpuInstance> &candidates)
{
    const cloud::GpuInstance *best = nullptr;
    for (const auto &candidate : candidates) {
        if (!best || candidate.hourlyUsd < best->hourlyUsd)
            best = &candidate;
    }
    if (!best)
        util::fatal("cheapestInstance: empty candidate list");
    return *best;
}

const cloud::GpuInstance &
latestGenerationInstance(
    const std::vector<cloud::GpuInstance> &candidates,
    double hourly_budget)
{
    const cloud::GpuInstance *best = nullptr;
    for (const auto &candidate : candidates) {
        if (candidate.gpu != hw::GpuModel::V100 ||
            candidate.hourlyUsd > hourly_budget) {
            continue;
        }
        if (!best || candidate.numGpus > best->numGpus)
            best = &candidate;
    }
    if (!best)
        util::fatal("latestGenerationInstance: no P3 candidate within "
                    "budget");
    return *best;
}

double
heavyOnlyUs(const core::IterationTerms &terms)
{
    return terms.heavyUs + terms.commUs;
}

double
noCommUs(const core::IterationTerms &terms)
{
    return terms.heavyUs + terms.lightUs + terms.cpuUs;
}

FlopsPredictor::FlopsPredictor(double utilization)
    : utilization_(utilization)
{
    if (utilization <= 0.0 || utilization > 1.0)
        util::fatal("FlopsPredictor: utilization must be in (0, 1]");
}

double
FlopsPredictor::predictIterationUs(const graph::Graph &g,
                                   hw::GpuModel gpu) const
{
    const hw::GpuSpec &spec = hw::gpuSpec(gpu);
    double total_flops = 0.0;
    for (const graph::Node &node : g.nodes()) {
        if (node.device() != graph::Device::Gpu)
            continue;
        total_flops += hw::opCost(node).flops;
    }
    return total_flops / (spec.peakTflops * utilization_ * 1e6);
}

} // namespace baselines
} // namespace ceer

#include "hw/memory.h"

#include <algorithm>

namespace ceer {
namespace hw {

using graph::Device;
using graph::Node;

MemoryEstimate
estimateTrainingMemory(const graph::Graph &g)
{
    MemoryEstimate estimate;
    estimate.paramBytes =
        static_cast<double>(g.totalParameters()) * 4.0;
    estimate.gradientBytes = estimate.paramBytes;

    // Optimizer slots: vanilla SGD keeps none, momentum one, Adam two.
    // Detect from the update ops present in the graph.
    int slots = 0;
    for (const Node &node : g.nodes()) {
        if (node.type == graph::OpType::ApplyMomentum)
            slots = std::max(slots, 1);
        else if (node.type == graph::OpType::ApplyAdam)
            slots = std::max(slots, 2);
    }
    estimate.optimizerBytes = slots * estimate.paramBytes;

    // A forward activation must be retained only if the backward pass
    // actually reads it (e.g. ReLU outputs feed ReluGrad; fused
    // batch-norm outputs are not read by FusedBatchNormGradV3, which
    // re-reads the conv output instead). The gradient flags plus the
    // consumer lists identify exactly that set.
    const auto &consumers = g.consumers();
    for (const Node &node : g.nodes()) {
        if (node.device() != Device::Gpu || node.isGradient)
            continue;
        bool retained = false;
        for (graph::NodeId consumer :
             consumers[static_cast<std::size_t>(node.id)]) {
            if (g.node(consumer).isGradient) {
                retained = true;
                break;
            }
        }
        if (retained) {
            estimate.activationBytes +=
                static_cast<double>(node.outputBytes());
        }
    }
    // cuDNN workspaces, streams, context: a flat reserve.
    estimate.workspaceBytes = 600e6;
    return estimate;
}

bool
fitsInGpuMemory(const MemoryEstimate &estimate, GpuModel gpu,
                double margin)
{
    const double budget = gpuSpec(gpu).memoryGB * 1e9 * (1.0 - margin);
    return estimate.totalBytes() <= budget;
}

} // namespace hw
} // namespace ceer

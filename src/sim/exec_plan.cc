#include "sim/exec_plan.h"

namespace ceer {
namespace sim {

using graph::Device;
using graph::Node;
using graph::OpType;

ExecPlan
ExecPlan::build(const graph::Graph &g, hw::GpuModel gpu)
{
    const hw::GpuTimingModel gpu_model(gpu);
    const hw::CpuTimingModel cpu_model(hw::hostSpeedFactor(gpu));
    ExecPlan plan;
    plan.gpu = gpu;
    const std::size_t n = g.size();
    plan.nodeSlot.reserve(n);
    plan.nodeOnGpu.reserve(n);

    for (std::size_t i = 0; i < n; ++i) {
        const Node &node = g.nodes()[i];
        const bool on_gpu = node.device() == Device::Gpu;
        plan.nodeOnGpu.push_back(on_gpu ? 1 : 0);
        if (on_gpu) {
            plan.nodeSlot.push_back(
                static_cast<std::uint32_t>(plan.gpuBaseUs.size()));
            plan.gpuNode.push_back(static_cast<std::uint32_t>(i));
            plan.gpuBaseUs.push_back(gpu_model.meanTimeUs(node));
            plan.gpuSigma.push_back(gpu_model.effectiveSigma(node));
        } else {
            plan.nodeSlot.push_back(
                static_cast<std::uint32_t>(plan.cpuMeanUs.size()));
            plan.cpuNode.push_back(static_cast<std::uint32_t>(i));
            plan.cpuMeanUs.push_back(cpu_model.meanTimeUs(node));
        }

        if (node.type == OpType::IteratorGetNext)
            plan.inputBytes += static_cast<double>(node.outputBytes());
    }
    plan.paramBytes = static_cast<double>(g.totalParameters()) * 4.0;
    return plan;
}

} // namespace sim
} // namespace ceer

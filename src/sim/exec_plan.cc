#include "sim/exec_plan.h"

namespace ceer {
namespace sim {

using graph::Device;
using graph::Node;
using graph::OpType;

ExecPlan
ExecPlan::build(const graph::Graph &g, hw::GpuModel gpu)
{
    return std::move(build(g, std::span(&gpu, 1)).front());
}

std::vector<ExecPlan>
ExecPlan::build(const graph::Graph &g, std::span<const hw::GpuModel> gpus)
{
    std::vector<hw::GpuTimingModel> gpu_models;
    std::vector<hw::CpuTimingModel> cpu_models;
    std::vector<ExecPlan> plans(gpus.size());
    std::size_t gpu_nodes = 0;
    for (const Node &node : g.nodes())
        gpu_nodes += node.device() == Device::Gpu;
    const std::size_t n = g.size();
    for (std::size_t p = 0; p < gpus.size(); ++p) {
        gpu_models.emplace_back(gpus[p]);
        cpu_models.emplace_back(hw::hostSpeedFactor(gpus[p]));
        ExecPlan &plan = plans[p];
        plan.gpu = gpus[p];
        plan.gpuBaseUs.reserve(gpu_nodes);
        plan.gpuSigma.reserve(gpu_nodes);
        plan.cpuMeanUs.reserve(n - gpu_nodes);
        plan.nodeSlot.reserve(n);
        plan.nodeOnGpu.reserve(n);
    }

    double input_bytes = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const Node &node = g.nodes()[i];
        if (node.device() == Device::Gpu) {
            const hw::KernelWork work(node);
            for (std::size_t p = 0; p < plans.size(); ++p) {
                ExecPlan &plan = plans[p];
                const hw::KernelTiming timing = gpu_models[p].timing(work);
                plan.nodeOnGpu.push_back(1);
                plan.nodeSlot.push_back(
                    static_cast<std::uint32_t>(plan.gpuBaseUs.size()));
                plan.gpuBaseUs.push_back(timing.meanUs);
                plan.gpuSigma.push_back(timing.sigma);
            }
        } else {
            for (std::size_t p = 0; p < plans.size(); ++p) {
                ExecPlan &plan = plans[p];
                plan.nodeOnGpu.push_back(0);
                plan.nodeSlot.push_back(
                    static_cast<std::uint32_t>(plan.cpuMeanUs.size()));
                plan.cpuMeanUs.push_back(cpu_models[p].meanTimeUs(node));
            }
        }

        if (node.type == OpType::IteratorGetNext)
            input_bytes += static_cast<double>(node.outputBytes());
    }
    const double param_bytes = static_cast<double>(g.totalParameters()) * 4.0;
    for (ExecPlan &plan : plans) {
        plan.inputBytes = input_bytes;
        plan.paramBytes = param_bytes;
    }
    return plans;
}

} // namespace sim
} // namespace ceer

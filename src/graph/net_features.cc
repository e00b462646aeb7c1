#include "graph/net_features.h"

#include <algorithm>

#include "util/logging.h"

namespace ceer {
namespace graph {

namespace {

enum FeatureSlot
{
    kGpuOps = 0,
    kCpuOps,
    kParamsM,
    kTotalGflops,
    kMaxOpGflops,
    kConvGflops,
    kMatMulGflops,
    kInputGb,
    kOutputGb,
    kPoolOps,
    kNormOps,
    kElementwiseOps,
    kDataMovementGb,
    kNumSlots,
};

} // namespace

std::vector<double>
netFeatures(const Graph &g, const NodeFlopsFn &flops)
{
    if (!flops)
        util::panic("netFeatures: null flops callback");
    std::vector<double> out(kNumSlots, 0.0);
    out[kParamsM] = static_cast<double>(g.totalParameters()) / 1e6;
    for (const Node &node : g.nodes()) {
        if (node.device() == Device::Cpu) {
            out[kCpuOps] += 1.0;
            continue;
        }
        out[kGpuOps] += 1.0;
        const double gflops = flops(node) / 1e9;
        const double input_gb =
            static_cast<double>(node.inputBytes()) / 1e9;
        out[kTotalGflops] += gflops;
        out[kMaxOpGflops] = std::max(out[kMaxOpGflops], gflops);
        out[kInputGb] += input_gb;
        out[kOutputGb] +=
            static_cast<double>(node.outputBytes()) / 1e9;
        switch (node.category()) {
        case CostCategory::Conv:
        case CostCategory::ConvFilterGrad:
            out[kConvGflops] += gflops;
            break;
        case CostCategory::MatMulCat:
            out[kMatMulGflops] += gflops;
            break;
        case CostCategory::Pool:
        case CostCategory::PoolGrad:
            out[kPoolOps] += 1.0;
            break;
        case CostCategory::BatchNorm:
        case CostCategory::Normalization:
            out[kNormOps] += 1.0;
            break;
        case CostCategory::Elementwise:
        case CostCategory::Bias:
            out[kElementwiseOps] += 1.0;
            break;
        case CostCategory::DataMovement:
            out[kDataMovementGb] += input_gb;
            break;
        default:
            break;
        }
    }
    return out;
}

} // namespace graph
} // namespace ceer

/**
 * @file
 * Exhaustive sweeps: every registered op type must pass through the
 * cost and timing models without surprises, and every model (zoo and
 * extras) must simulate on every GPU model. These catch gaps when new
 * op types or models are added.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "hw/device_model.h"
#include "hw/op_cost.h"
#include "models/model_zoo.h"
#include "sim/sample_kernel.h"
#include "sim/simulator.h"

namespace ceer {
namespace {

using graph::Device;
using graph::Node;
using graph::OpAttrs;
using graph::OpType;
using graph::TensorShape;

/** A plausible node of the given type for sweep purposes. */
Node
sweepNode(OpType type)
{
    Node node;
    node.id = 0;
    node.name = "sweep";
    node.type = type;
    const TensorShape activation = TensorShape::nhwc(8, 28, 28, 32);
    OpAttrs attrs;
    attrs.kernelH = attrs.kernelW = 3;
    attrs.strideH = attrs.strideW = 1;
    attrs.filterShape = TensorShape{3, 3, 32, 32};
    node.attrs = attrs;
    node.inputShapes = {activation, activation};
    node.outputShape = activation;
    return node;
}

class OpTypeSweep : public ::testing::TestWithParam<OpType>
{
};

TEST_P(OpTypeSweep, CostIsFiniteAndNonNegative)
{
    const Node node = sweepNode(GetParam());
    const hw::OpCost cost = hw::opCost(node);
    EXPECT_GE(cost.flops, 0.0);
    EXPECT_GE(cost.bytes, 0.0);
    EXPECT_TRUE(std::isfinite(cost.flops));
    EXPECT_TRUE(std::isfinite(cost.bytes));
}

TEST_P(OpTypeSweep, TimingModelHandlesEveryPlacement)
{
    const Node node = sweepNode(GetParam());
    if (node.device() == Device::Gpu) {
        for (hw::GpuModel gpu : hw::allGpuModels()) {
            hw::GpuTimingModel model(gpu);
            const double mean = model.timing(node).meanUs;
            EXPECT_GE(mean, hw::gpuSpec(gpu).kernelLaunchUs * 0.99);
            EXPECT_TRUE(std::isfinite(mean));
            // Deterministic: two models agree on the same instance.
            EXPECT_DOUBLE_EQ(mean,
                             hw::GpuTimingModel(gpu).timing(node).meanUs);
            // One draw through the kernel, with the lane inputs
            // sim::ExecPlan::build makes of this node.
            const double sigma = model.timing(node).sigma;
            double scratch[sim::kernel::kBlock];
            double sample = 0.0;
            sim::kernel::gpuLaneUs(sim::kernel::replicaStreamKey(3, 0, 0),
                                   &mean, &sigma, 1, scratch, &sample);
            EXPECT_GT(sample, 0.0);
        }
    } else {
        const double mean = hw::CpuTimingModel(1.0).meanTimeUs(node);
        EXPECT_GT(mean, 0.0);
        double sample = 0.0;
        sim::kernel::cpuLaneUs(sim::kernel::replicaStreamKey(3, 0, 0),
                               &mean, 1, &sample);
        EXPECT_GT(sample, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpTypeSweep,
                         ::testing::ValuesIn(graph::allOpTypes()),
                         [](const auto &info) {
                             return graph::opTypeName(info.param);
                         });

/** All buildable models, zoo plus extras. */
std::vector<std::string>
everyModelName()
{
    std::vector<std::string> names = models::allModelNames();
    names.push_back("transformer_encoder");
    names.push_back("lstm_classifier");
    names.push_back("mobilenet_v1");
    return names;
}

class ModelGpuSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ModelGpuSweep, SimulatesOnEveryGpuModel)
{
    const graph::Graph g = models::buildModel(GetParam(), 8);
    double previous = 0.0;
    for (hw::GpuModel gpu :
         {hw::GpuModel::V100, hw::GpuModel::T4, hw::GpuModel::M60,
          hw::GpuModel::K80}) {
        sim::SimConfig config;
        config.gpu = gpu;
        config.seed = 77;
        sim::TrainingSimulator simulator(g, config);
        const double mean = simulator.run(3).iterationUs.mean();
        EXPECT_TRUE(std::isfinite(mean));
        // The paper's ordering holds for every model we can build:
        // V100 < T4 < M60 < K80 per-iteration.
        EXPECT_GT(mean, previous) << hw::gpuModelName(gpu);
        previous = mean;
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelGpuSweep,
                         ::testing::ValuesIn(everyModelName()),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace ceer

/**
 * @file
 * Tests for the layer-level model summary and the optimizer variants
 * of the training-graph generator.
 */

#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "graph/autodiff.h"
#include "graph/builder.h"
#include "graph/summary.h"
#include "hw/memory.h"
#include "hw/op_cost.h"
#include "models/model_zoo.h"

namespace ceer {
namespace graph {
namespace {

TEST(SummaryTest, LayersFollowConstructionOrder)
{
    const Graph g = models::buildAlexNet(32);
    const ModelSummary summary = summarize(g);
    ASSERT_GT(summary.layers.size(), 10u);
    // AlexNet layer order: data pipeline, then conv1..fc8, then loss.
    std::vector<std::string> names;
    for (const auto &layer : summary.layers)
        names.push_back(layer.name);
    const auto position = [&](const std::string &name) {
        return std::find(names.begin(), names.end(), name) -
               names.begin();
    };
    EXPECT_LT(position("conv1"), position("conv2"));
    EXPECT_LT(position("conv5"), position("fc6"));
    EXPECT_LT(position("fc6"), position("fc8"));
    EXPECT_NE(position("loss"),
              static_cast<std::ptrdiff_t>(names.size()));
}

TEST(SummaryTest, ParamAndOpTotalsMatchTheGraph)
{
    const Graph g = models::buildVgg(16, 32);
    const ModelSummary summary = summarize(g);
    EXPECT_EQ(summary.totalParams, g.totalParameters());
    EXPECT_EQ(summary.totalOps, g.size());
    std::size_t forward = 0, backward = 0;
    std::int64_t params = 0;
    for (const auto &layer : summary.layers) {
        forward += layer.forwardOps;
        backward += layer.backwardOps;
        params += layer.params;
    }
    EXPECT_EQ(forward + backward, g.size());
    EXPECT_EQ(params, g.totalParameters());
    EXPECT_GT(backward, forward); // backward pass dominates op count.
}

TEST(SummaryTest, GradientOpsAttributeToTheirForwardLayer)
{
    const Graph g = models::buildAlexNet(8);
    const ModelSummary summary = summarize(g);
    for (const auto &layer : summary.layers) {
        if (layer.name == "conv2") {
            // Conv + BiasAdd + Relu forward; grads + updates backward.
            EXPECT_EQ(layer.forwardOps, 3u);
            EXPECT_GE(layer.backwardOps, 5u);
            return;
        }
    }
    FAIL() << "conv2 layer missing from the summary";
}

TEST(SummaryTest, FlopsCallbackFillsGflops)
{
    const Graph g = models::buildAlexNet(32);
    const ModelSummary without = summarize(g);
    EXPECT_DOUBLE_EQ(without.totalGflops, 0.0);

    const ModelSummary with = summarize(
        g, 1, [](const Node &node) { return hw::opCost(node).flops; });
    EXPECT_GT(with.totalGflops, 50.0); // AlexNet iter is ~200 GFLOPs.
    double layer_sum = 0.0;
    for (const auto &layer : with.layers)
        layer_sum += layer.gflops;
    EXPECT_NEAR(layer_sum, with.totalGflops, 1e-9);
}

TEST(SummaryTest, DepthTwoSplitsHierarchicalLayers)
{
    const Graph g = models::buildInceptionV3(8);
    const ModelSummary coarse = summarize(g, 1);
    const ModelSummary fine = summarize(g, 2);
    EXPECT_GT(fine.layers.size(), coarse.layers.size());
    EXPECT_EQ(fine.totalParams, coarse.totalParams);
}

TEST(SummaryTest, PrintRendersHeaderAndRows)
{
    const Graph g = models::buildAlexNet(8);
    std::ostringstream out;
    summarize(g).print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("model: alexnet"), std::string::npos);
    EXPECT_NE(text.find("conv1"), std::string::npos);
    EXPECT_NE(text.find("| layer"), std::string::npos);
}

// --- Optimizer variants ---

Graph
tinyNet(Optimizer optimizer)
{
    GraphBuilder b("tiny", 4);
    NodeId x = b.imageInput(16, 16, 3);
    ConvOptions options;
    options.batchNorm = false;
    options.bias = true;
    x = b.conv2d(x, 8, 3, 3, options, "conv1");
    x = b.fullyConnected(x, 10, false, "logits");
    const NodeId loss = b.softmaxLoss(x);
    TrainingOptions training;
    training.optimizer = optimizer;
    addTrainingOps(b.graph(), loss, training);
    return b.finish();
}

TEST(OptimizerTest, SlotCounts)
{
    // Each update op carries its optimizer's slot variables as extra
    // inputs beside the gradient: none for SGD, one for momentum and
    // two (first and second moments) for Adam, each shaped like the
    // variable it updates.
    const std::pair<Optimizer, std::size_t> cases[] = {
        {Optimizer::Sgd, 0}, {Optimizer::Momentum, 1}, {Optimizer::Adam, 2}};
    for (const auto &[optimizer, slots] : cases) {
        SCOPED_TRACE(slots);
        const Graph g = tinyNet(optimizer);
        int updates = 0;
        for (const auto &node : g.nodes()) {
            if (node.type != OpType::ApplyGradientDescent &&
                node.type != OpType::ApplyMomentum &&
                node.type != OpType::ApplyAdam) {
                continue;
            }
            ++updates;
            ASSERT_EQ(node.inputs.size(), 1u);
            ASSERT_EQ(node.inputShapes.size(), 1 + slots);
            for (std::size_t i = 1; i < node.inputShapes.size(); ++i)
                EXPECT_EQ(node.inputShapes[i], node.outputShape);
        }
        EXPECT_EQ(updates, 4);
    }
}

TEST(OptimizerTest, UpdateOpTypeFollowsTheOptimizer)
{
    const Graph sgd = tinyNet(Optimizer::Sgd);
    const Graph momentum = tinyNet(Optimizer::Momentum);
    const Graph adam = tinyNet(Optimizer::Adam);

    auto count = [](const Graph &g, OpType type) {
        int n = 0;
        for (const auto &node : g.nodes())
            n += node.type == type;
        return n;
    };
    // conv filter + conv bias + fc weight + fc bias = 4 updates.
    EXPECT_EQ(count(sgd, OpType::ApplyGradientDescent), 4);
    EXPECT_EQ(count(sgd, OpType::ApplyMomentum), 0);
    EXPECT_EQ(count(momentum, OpType::ApplyMomentum), 4);
    EXPECT_EQ(count(adam, OpType::ApplyAdam), 4);
    EXPECT_EQ(count(adam, OpType::ApplyGradientDescent), 0);
    // Same total node count: only the update op type changes.
    EXPECT_EQ(sgd.size(), adam.size());
}

TEST(OptimizerTest, AdamSlotsRaiseTheMemoryEstimate)
{
    const hw::MemoryEstimate sgd =
        hw::estimateTrainingMemory(tinyNet(Optimizer::Sgd));
    const hw::MemoryEstimate momentum =
        hw::estimateTrainingMemory(tinyNet(Optimizer::Momentum));
    const hw::MemoryEstimate adam =
        hw::estimateTrainingMemory(tinyNet(Optimizer::Adam));
    EXPECT_DOUBLE_EQ(sgd.optimizerBytes, 0.0);
    EXPECT_DOUBLE_EQ(momentum.optimizerBytes, momentum.paramBytes);
    EXPECT_DOUBLE_EQ(adam.optimizerBytes, 2.0 * adam.paramBytes);
    EXPECT_GT(adam.totalBytes(), sgd.totalBytes());
}

TEST(OptimizerTest, ZooGraphsStillBuildWithAdam)
{
    // The zoo builders use the default SGD; verify an Adam variant of
    // a hand-built net validates and the update ops are terminal.
    const Graph g = tinyNet(Optimizer::Adam);
    std::string error;
    EXPECT_TRUE(g.validate(&error)) << error;
    const auto &consumers = g.consumers();
    for (const auto &node : g.nodes()) {
        if (node.type == OpType::ApplyAdam) {
            EXPECT_TRUE(
                consumers[static_cast<std::size_t>(node.id)].empty());
            EXPECT_TRUE(node.isGradient);
        }
    }
}

} // namespace
} // namespace graph
} // namespace ceer

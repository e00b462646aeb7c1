/**
 * @file
 * Tests for the Transformer encoder extension (paper Sec. VI future
 * work) and the multi-host communication extension (limitation 2).
 */

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "hw/interconnect.h"
#include "hw/memory.h"
#include "models/model_zoo.h"
#include "sim/simulator.h"

namespace ceer {
namespace models {
namespace {

using graph::Graph;
using graph::OpType;

const Graph &
bertBase()
{
    static const Graph g = buildTransformerEncoder(32);
    return g;
}

TEST(TransformerTest, BuildsValidGraphWithBertBaseParams)
{
    const Graph &g = bertBase();
    std::string error;
    EXPECT_TRUE(g.validate(&error)) << error;
    // BERT-base: ~110M parameters.
    EXPECT_NEAR(static_cast<double>(g.totalParameters()) / 1e6, 110.0,
                8.0);
    EXPECT_GT(g.size(), 500u);
    EXPECT_GT(g.cpuOpCount(), 2u);
}

TEST(TransformerTest, UsesTransformerKernels)
{
    std::map<OpType, int> counts;
    for (const auto &node : bertBase().nodes())
        ++counts[node.type];
    // 12 layers x 2 attention BMMs (+ backward x2 each).
    EXPECT_GE(counts[OpType::BatchMatMul], 24);
    // 12 layers x 2 LayerNorms + embedding LN, plus gradients.
    EXPECT_GE(counts[OpType::LayerNorm], 25);
    // Every LayerNorm (including the embedding one) is on the loss
    // path, so each gets exactly one gradient kernel.
    EXPECT_EQ(counts[OpType::LayerNormGrad],
              counts[OpType::LayerNorm]);
    EXPECT_EQ(counts[OpType::Gelu], 12);
    EXPECT_EQ(counts[OpType::GeluGrad], 12);
    EXPECT_EQ(counts[OpType::Gather], 1);
    EXPECT_EQ(counts[OpType::Tanh], 1);
    // No convolutions anywhere.
    EXPECT_EQ(counts.count(OpType::Conv2D), 0u);
}

TEST(TransformerTest, EmbeddingGradientScattersIntoTable)
{
    // The Gather op must produce exactly one table update and no
    // gradient toward the integer indices.
    const Graph &g = bertBase();
    int table_updates = 0;
    for (const auto &node : g.nodes()) {
        if (node.name.find("embeddings/Gather/update") !=
            std::string::npos) {
            ++table_updates;
            EXPECT_EQ(node.attrs.paramCount, 30522ll * 768);
        }
        if (node.name.find("grad/data/tokens") != std::string::npos)
            FAIL() << "gradient flowed into the token pipeline";
    }
    EXPECT_EQ(table_updates, 1);
}

TEST(TransformerTest, AttentionDominatesComputeRealistically)
{
    // On V100, one iteration at batch 32 should land in the hundreds
    // of milliseconds (real BERT-base: ~300-400ms) and fit in 16 GB.
    sim::SimConfig config;
    config.seed = 5;
    sim::TrainingSimulator simulator(bertBase(), config);
    const double iter_us = simulator.run(10).iterationUs.mean();
    EXPECT_GT(iter_us, 100e3);
    EXPECT_LT(iter_us, 900e3);
    EXPECT_TRUE(hw::fitsInGpuMemory(
        hw::estimateTrainingMemory(bertBase()), hw::GpuModel::V100));
}

TEST(TransformerTest, BatchMatMulFlopsMatchAttentionMath)
{
    // scores = QK': [B*h, S, d_h] x -> [B*h, S, S] should cost
    // 2 * B*h * S * S * d_h flops.
    for (const auto &node : bertBase().nodes()) {
        if (node.type == OpType::BatchMatMul &&
            node.name.find("att/qk") != std::string::npos &&
            !node.isGradient) {
            const double flops = hw::opCost(node).flops;
            EXPECT_NEAR(flops, 2.0 * (32.0 * 12) * 128 * 128 * 64,
                        1.0);
            return;
        }
    }
    FAIL() << "attention scores BatchMatMul not found";
}

TEST(TransformerTest, RegistryBuildsByNameButZooStaysTwelve)
{
    const Graph g = buildModel("transformer_encoder", 8);
    EXPECT_EQ(g.name(), "transformer_encoder");
    const auto &zoo = allModelNames();
    EXPECT_EQ(zoo.size(), 12u);
    EXPECT_EQ(std::find(zoo.begin(), zoo.end(), "transformer_encoder"),
              zoo.end());
}

// --- LSTM classifier (the other Sec. VI future-work family) ---

TEST(LstmTest, BuildsValidUnrolledGraph)
{
    const Graph g = buildLstmClassifier(32);
    std::string error;
    EXPECT_TRUE(g.validate(&error)) << error;
    // 64 unrolled steps of ~17 forward ops plus the backward pass.
    EXPECT_GT(g.size(), 2000u);
    EXPECT_NEAR(static_cast<double>(g.totalParameters()) / 1e6, 7.2,
                0.5);
}

TEST(LstmTest, GateStructurePerStep)
{
    const Graph g = buildLstmClassifier(8);
    std::map<OpType, int> counts;
    for (const auto &node : g.nodes())
        if (!node.isGradient)
            ++counts[node.type];
    // Per step: 1 fused-gate MatMul, 3 sigmoids, 2 tanh, 3 Mul.
    EXPECT_EQ(counts[OpType::Sigmoid], 3 * 64);
    EXPECT_EQ(counts[OpType::Tanh], 2 * 64);
    EXPECT_GE(counts[OpType::MatMul], 64);
    EXPECT_EQ(counts[OpType::ConcatV2], 64);
}

TEST(LstmTest, BpttGradientsReachEveryStep)
{
    // Gradients must flow back through all 64 steps: the first step's
    // gate MatMul gets a weight-gradient kernel.
    const Graph g = buildLstmClassifier(8);
    bool first_step_updated = false;
    for (const auto &node : g.nodes()) {
        if (node.isGradient &&
            node.name.find("step_00/gates") != std::string::npos) {
            first_step_updated = true;
        }
    }
    EXPECT_TRUE(first_step_updated);
}

TEST(LstmTest, MostKernelsAreCnnKnown)
{
    // Only Sigmoid (and the shared Gather/Fill plumbing) is new
    // relative to the CNN zoo's op set; count its time share as small.
    const Graph g = buildLstmClassifier(32);
    std::set<OpType> cnn_ops;
    for (const std::string &name : allModelNames()) {
        for (const auto &entry :
             buildModel(name, 8).countByOpType()) {
            cnn_ops.insert(entry.type);
        }
    }
    std::size_t unknown = 0, total = 0;
    for (const auto &node : g.nodes()) {
        if (node.device() != graph::Device::Gpu)
            continue;
        ++total;
        unknown += !cnn_ops.count(node.type);
    }
    EXPECT_LT(static_cast<double>(unknown) / static_cast<double>(total),
              0.15);
}

// --- MobileNet-v1 (post-zoo CNN op: depthwise convolution) ---

TEST(MobileNetTest, BuildsValidGraphWithPublishedParams)
{
    const Graph g = buildMobileNetV1(32);
    std::string error;
    EXPECT_TRUE(g.validate(&error)) << error;
    EXPECT_NEAR(static_cast<double>(g.totalParameters()) / 1e6, 4.2,
                0.4);
}

TEST(MobileNetTest, ThirteenSeparableBlocks)
{
    const Graph g = buildMobileNetV1(8);
    std::map<OpType, int> counts;
    for (const auto &node : g.nodes())
        ++counts[node.type];
    EXPECT_EQ(counts[OpType::DepthwiseConv2dNative], 13);
    EXPECT_EQ(counts[OpType::DepthwiseConv2dNativeBackpropFilter], 13);
    // Every depthwise conv sits mid-network: all get input grads.
    EXPECT_EQ(counts[OpType::DepthwiseConv2dNativeBackpropInput], 13);
    // Stem conv + 13 pointwise convs.
    EXPECT_EQ(counts[OpType::Conv2D], 14);
}

TEST(MobileNetTest, DepthwiseFlopsLackChannelFactor)
{
    // Depthwise MACs = 2 * out_elems * kh * kw; the pointwise conv in
    // the same block must cost ~C_in times more FLOPs per element.
    const Graph g = buildMobileNetV1(32);
    double depthwise_flops = 0.0, pointwise_flops = 0.0;
    for (const auto &node : g.nodes()) {
        if (node.isGradient)
            continue;
        if (node.type == OpType::DepthwiseConv2dNative &&
            node.name.find("block_01") != std::string::npos) {
            depthwise_flops = hw::opCost(node).flops;
            // 112x112x32 output, 3x3 window.
            EXPECT_NEAR(depthwise_flops,
                        2.0 * 32 * 112 * 112 * 32 * 9, 1.0);
        }
        if (node.type == OpType::Conv2D &&
            node.name.find("block_01/pw") != std::string::npos) {
            pointwise_flops = hw::opCost(node).flops;
        }
    }
    ASSERT_GT(depthwise_flops, 0.0);
    ASSERT_GT(pointwise_flops, 0.0);
    // pw: 2*out_elems*1*1*32 vs dw: 2*out_elems*9 -> ratio 32/9 ~ 3.6
    // at equal spatial size (pw doubles channels: x2 more elems).
    EXPECT_GT(pointwise_flops / depthwise_flops, 3.0);
}

// --- Multi-host communication ---

TEST(MultiHostTest, CrossingHostsRaisesOverhead)
{
    for (hw::GpuModel gpu : hw::allGpuModels()) {
        const double single_host =
            hw::commOverheadUs(gpu, 4, 100e6, 20e6, 8);
        const double two_hosts =
            hw::commOverheadUs(gpu, 4, 100e6, 20e6, 2);
        const double four_hosts =
            hw::commOverheadUs(gpu, 4, 100e6, 20e6, 1);
        EXPECT_GT(two_hosts, single_host) << hw::gpuModelName(gpu);
        EXPECT_GT(four_hosts, two_hosts) << hw::gpuModelName(gpu);
    }
}

TEST(MultiHostTest, SingleGpuUnaffectedByTopology)
{
    EXPECT_DOUBLE_EQ(
        hw::commOverheadUs(hw::GpuModel::V100, 1, 100e6, 20e6, 8),
        hw::commOverheadUs(hw::GpuModel::V100, 1, 100e6, 20e6, 1));
}

TEST(MultiHostTest, SimulatorThreadsTopologyThrough)
{
    const Graph g = buildInceptionV1(32);
    sim::SimConfig single, spread;
    single.numGpus = spread.numGpus = 4;
    single.seed = spread.seed = 99;
    spread.gpusPerHost = 1;
    sim::TrainingSimulator a(g, single), b(g, spread);
    EXPECT_GT(b.run(15).commUs.mean(), a.run(15).commUs.mean() * 1.2);
}

TEST(MultiHostTest, BadTopologyPanics)
{
    EXPECT_DEATH(hw::commOverheadUs(hw::GpuModel::V100, 4, 1e6, 1e6, 0),
                 "gpus_per_host");
    const Graph g = buildInceptionV1(8);
    sim::SimConfig config;
    config.gpusPerHost = 0;
    EXPECT_DEATH(sim::TrainingSimulator(g, config), "gpusPerHost");
}

} // namespace
} // namespace models
} // namespace ceer

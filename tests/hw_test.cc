/**
 * @file
 * Tests for the hardware model: specs, analytic op costs, timing-model
 * calibration against the paper's aggregate ratios, noise structure,
 * and the communication model. The Fig. 5 noise claims are checked on
 * the simulator's sampling kernel, the only place the noise is drawn.
 */

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "hw/device_model.h"
#include "hw/gpu_spec.h"
#include "hw/interconnect.h"
#include "hw/op_cost.h"
#include "sim/exec_plan.h"
#include "sim/sample_kernel.h"
#include "util/stats.h"

namespace ceer {
namespace hw {
namespace {

using graph::Node;
using graph::OpAttrs;
using graph::OpType;
using graph::PaddingMode;
using graph::TensorShape;

Node
makeNode(OpType type, std::vector<TensorShape> input_shapes,
         TensorShape output, OpAttrs attrs = {})
{
    Node node;
    node.id = 0;
    node.name = "test";
    node.type = type;
    node.inputShapes = std::move(input_shapes);
    node.outputShape = std::move(output);
    node.attrs = attrs;
    return node;
}

/**
 * Draws @p n times of @p node alone through the production sampler:
 * the lane inputs are what sim::ExecPlan::build makes of a one-node
 * graph on @p gpu, and draw i is keyed replicaStreamKey(seed, i, 0).
 */
util::RunningStats
kernelSamples(const Node &node, GpuModel gpu, std::uint64_t seed, int n)
{
    graph::Graph g;
    g.addNode(node.name, node.type, {}, node.inputShapes,
              node.outputShape, node.attrs);
    const sim::ExecPlan plan = sim::ExecPlan::build(g, gpu);
    double scratch[sim::kernel::kBlock];
    util::RunningStats stats;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t key = sim::kernel::replicaStreamKey(seed, i, 0);
        double t = 0.0;
        if (plan.gpuBaseUs.empty())
            sim::kernel::cpuLaneUs(key, plan.cpuMeanUs.data(), 1, &t);
        else
            sim::kernel::gpuLaneUs(key, plan.gpuBaseUs.data(),
                                   plan.gpuSigma.data(), 1, scratch, &t);
        stats.add(t);
    }
    return stats;
}

/** A representative large conv: 3x3x64->64 on 56x56, batch 32. */
Node
bigConv()
{
    OpAttrs attrs;
    attrs.kernelH = attrs.kernelW = 3;
    attrs.strideH = attrs.strideW = 1;
    attrs.filterShape = TensorShape{3, 3, 64, 64};
    return makeNode(OpType::Conv2D,
                    {TensorShape::nhwc(32, 56, 56, 64),
                     TensorShape{3, 3, 64, 64}},
                    TensorShape::nhwc(32, 56, 56, 64), attrs);
}

Node
bigPool()
{
    OpAttrs attrs;
    attrs.kernelH = attrs.kernelW = 2;
    attrs.strideH = attrs.strideW = 2;
    return makeNode(OpType::MaxPool,
                    {TensorShape::nhwc(32, 112, 112, 128)},
                    TensorShape::nhwc(32, 56, 56, 128), attrs);
}

TEST(GpuSpecTest, FourModelsWithPaperFamilies)
{
    EXPECT_EQ(allGpuModels().size(), 4u);
    EXPECT_EQ(gpuFamilyName(GpuModel::V100), "P3");
    EXPECT_EQ(gpuFamilyName(GpuModel::K80), "P2");
    EXPECT_EQ(gpuFamilyName(GpuModel::T4), "G4");
    EXPECT_EQ(gpuFamilyName(GpuModel::M60), "G3");
    EXPECT_EQ(gpuSpec(GpuModel::V100).cudaCores, 5120);
}

TEST(GpuSpecTest, NameParsingAcceptsModelAndFamily)
{
    GpuModel parsed;
    EXPECT_TRUE(gpuModelFromName("V100", parsed));
    EXPECT_EQ(parsed, GpuModel::V100);
    EXPECT_TRUE(gpuModelFromName("p2", parsed));
    EXPECT_EQ(parsed, GpuModel::K80);
    EXPECT_TRUE(gpuModelFromName("g4", parsed));
    EXPECT_EQ(parsed, GpuModel::T4);
    EXPECT_FALSE(gpuModelFromName("A100", parsed));
}

TEST(OpCostTest, ConvFlopsMatchClosedForm)
{
    const Node conv = bigConv();
    const OpCost cost = opCost(conv);
    // 2 * out_elems * kh * kw * inC.
    const double expected =
        2.0 * (32.0 * 56 * 56 * 64) * 3 * 3 * 64;
    EXPECT_DOUBLE_EQ(cost.flops, expected);
    EXPECT_GT(cost.bytes, 0.0);
}

TEST(OpCostTest, MatMulFlops)
{
    OpAttrs attrs;
    attrs.filterShape = TensorShape::matrix(9216, 4096);
    const Node matmul = makeNode(
        OpType::MatMul,
        {TensorShape::matrix(32, 9216), TensorShape::matrix(9216, 4096)},
        TensorShape::matrix(32, 4096), attrs);
    EXPECT_DOUBLE_EQ(opCost(matmul).flops, 2.0 * 32 * 9216 * 4096);
}

TEST(OpCostTest, ElementwiseIsTrafficDominated)
{
    const TensorShape shape = TensorShape::nhwc(32, 56, 56, 64);
    const Node relu =
        makeNode(OpType::Relu, {shape}, shape);
    const OpCost cost = opCost(relu);
    EXPECT_DOUBLE_EQ(cost.bytes,
                     2.0 * static_cast<double>(shape.numBytes()));
    EXPECT_DOUBLE_EQ(cost.flops,
                     static_cast<double>(shape.numElements()));
}

TEST(OpCostTest, TrivialOpsHaveNoCost)
{
    const TensorShape shape = TensorShape::nhwc(32, 56, 56, 64);
    const Node reshape = makeNode(OpType::Reshape, {shape},
                                  TensorShape::matrix(32, 56 * 56 * 64));
    EXPECT_DOUBLE_EQ(opCost(reshape).flops, 0.0);
    EXPECT_DOUBLE_EQ(opCost(reshape).bytes, 0.0);
}

TEST(TimingModelTest, RelativeSpeedMatchesPaperOrdering)
{
    // P3 fastest, then G4, then G3, then P2 (paper Sec. III-A).
    const Node conv = bigConv();
    const double p3 = GpuTimingModel(GpuModel::V100).timing(conv).meanUs;
    const double g4 = GpuTimingModel(GpuModel::T4).timing(conv).meanUs;
    const double g3 = GpuTimingModel(GpuModel::M60).timing(conv).meanUs;
    const double p2 = GpuTimingModel(GpuModel::K80).timing(conv).meanUs;
    EXPECT_LT(p3, g4);
    EXPECT_LT(g4, g3);
    EXPECT_LT(g3, p2);
}

TEST(TimingModelTest, ConvRatiosNearCalibrationTargets)
{
    const Node conv = bigConv();
    const double p3 = GpuTimingModel(GpuModel::V100).timing(conv).meanUs;
    const double g4 = GpuTimingModel(GpuModel::T4).timing(conv).meanUs;
    const double p2 = GpuTimingModel(GpuModel::K80).timing(conv).meanUs;
    // Conv kernels are compute-bound, so their cross-GPU gaps are
    // narrow (~1.9x G4, ~6.2x P2) — the wide 4x/10x gaps of the
    // paper's Fig. 2 are per-op-type averages dominated by the
    // memory-bound categories. Wobble is +-10%; allow generous bands.
    EXPECT_NEAR(g4 / p3, 1.93, 0.5);
    EXPECT_NEAR(p2 / p3, 6.2, 1.5);
}

TEST(TimingModelTest, PoolingFavorsV100EnoughToWinOnCost)
{
    const Node pool = bigPool();
    const double p3 = GpuTimingModel(GpuModel::V100).timing(pool).meanUs;
    const double g4 = GpuTimingModel(GpuModel::T4).timing(pool).meanUs;
    // P3 wins pooling on cost despite 3.06/0.752 pricing iff the time
    // ratio exceeds ~4.07 (paper Sec. III-B).
    EXPECT_GT(g4 / p3, 4.07);
}

TEST(TimingModelTest, BatchNormGradIsG4sBestCostCase)
{
    OpAttrs attrs;
    attrs.filterShape = TensorShape::vector(64);
    const TensorShape shape = TensorShape::nhwc(32, 56, 56, 64);
    const Node bn_grad =
        makeNode(OpType::FusedBatchNormGradV3, {shape, shape}, shape,
                 attrs);
    const double p3 =
        GpuTimingModel(GpuModel::V100).timing(bn_grad).meanUs;
    const double g4 = GpuTimingModel(GpuModel::T4).timing(bn_grad).meanUs;
    // Cost ratio G4/P3 = time ratio * 0.752/3.06; the paper reports G4
    // ~29% cheaper on this op -> time ratio ~2.9.
    EXPECT_NEAR(g4 / p3, 2.9, 0.7);
}

TEST(TimingModelTest, FilterGradIsSuperlinear)
{
    // Doubling the spatial input size should more than double the
    // Conv2DBackpropFilter time (quadratic behaviour, Sec. IV-B).
    auto filter_grad_node = [](int hw_dim) {
        OpAttrs attrs;
        attrs.kernelH = attrs.kernelW = 3;
        attrs.strideH = attrs.strideW = 1;
        attrs.filterShape = TensorShape{3, 3, 64, 64};
        return makeNode(
            OpType::Conv2DBackpropFilter,
            {TensorShape::nhwc(32, hw_dim, hw_dim, 64),
             TensorShape::nhwc(32, hw_dim, hw_dim, 64)},
            TensorShape{3, 3, 64, 64}, attrs);
    };
    GpuTimingModel model(GpuModel::V100);
    const double small = model.timing(filter_grad_node(28)).meanUs;
    const double large = model.timing(filter_grad_node(56)).meanUs;
    // 4x the work; superlinearity should push the ratio well above 4
    // (wobble is deterministic per instance, at most +-10% each way).
    EXPECT_GT(large / small, 4.3);
}

TEST(TimingModelTest, HeavyOpNoiseIsLowAndDeterministic)
{
    const Node conv = bigConv();
    GpuTimingModel model(GpuModel::V100);
    const util::RunningStats stats =
        kernelSamples(conv, GpuModel::V100, 7, 3000);
    // Heavy kernels: normalized stddev well below 0.15 (Fig. 5).
    EXPECT_LT(stats.normalizedStddev(), 0.15);
    EXPECT_NEAR(stats.mean(), model.timing(conv).meanUs,
                0.05 * model.timing(conv).meanUs);

    // Identical instances have identical sigma (deterministic hash).
    EXPECT_DOUBLE_EQ(model.instanceSigma(conv),
                     model.instanceSigma(bigConv()));
}

TEST(TimingModelTest, TrivialOpsAreNoisy)
{
    const TensorShape shape = TensorShape::matrix(32, 1000);
    const Node identity = makeNode(OpType::Identity, {shape}, shape);
    const util::RunningStats stats =
        kernelSamples(identity, GpuModel::V100, 7, 3000);
    // Light/trivial kernels exhibit high variability (paper Sec. III-C).
    EXPECT_GT(stats.normalizedStddev(), 0.2);
}

TEST(TimingModelTest, SigmaDistributionMatchesFig5)
{
    // Across many synthetic heavy instances, ~95% of sigmas < 0.1.
    GpuTimingModel model(GpuModel::K80);
    std::vector<double> sigmas;
    for (int c = 16; c <= 512; c += 8) {
        OpAttrs attrs;
        attrs.kernelH = attrs.kernelW = 3;
        attrs.strideH = attrs.strideW = 1;
        attrs.filterShape = TensorShape{3, 3, c, c};
        const Node conv = makeNode(
            OpType::Conv2D,
            {TensorShape::nhwc(32, 28, 28, c), TensorShape{3, 3, c, c}},
            TensorShape::nhwc(32, 28, 28, c), attrs);
        sigmas.push_back(model.instanceSigma(conv));
    }
    std::size_t below = 0;
    for (double sigma : sigmas)
        below += sigma < 0.1;
    EXPECT_GE(static_cast<double>(below) /
                  static_cast<double>(sigmas.size()),
              0.85);
    EXPECT_LE(*std::max_element(sigmas.begin(), sigmas.end()), 0.115);
}

TEST(CpuModelTest, CpuOpsAreNoisyAndScaleWithHost)
{
    const TensorShape shape = TensorShape::matrix(32, 1000);
    const Node sparse =
        makeNode(OpType::SparseToDense, {shape}, shape);
    CpuTimingModel fast(1.0), slow(1.2);
    EXPECT_GT(slow.meanTimeUs(sparse), fast.meanTimeUs(sparse));

    // The V100 host is the 1.0 baseline, so its lane draws around
    // fast's mean.
    ASSERT_DOUBLE_EQ(hostSpeedFactor(GpuModel::V100), 1.0);
    const util::RunningStats stats =
        kernelSamples(sparse, GpuModel::V100, 3, 5000);
    EXPECT_NEAR(stats.normalizedStddev(), 0.6, 0.12);
    EXPECT_NEAR(stats.mean(), fast.meanTimeUs(sparse),
                0.05 * fast.meanTimeUs(sparse));
}

TEST(CpuModelTest, DevicePlacementIsEnforced)
{
    const TensorShape shape = TensorShape::matrix(32, 1000);
    const Node relu = makeNode(OpType::Relu, {shape}, shape);
    const Node sparse = makeNode(OpType::SparseToDense, {shape}, shape);
    EXPECT_DEATH(CpuTimingModel(1.0).meanTimeUs(relu), "GPU op");
    EXPECT_DEATH(GpuTimingModel(GpuModel::V100).timing(sparse),
                 "CPU op");
}

TEST(InterconnectTest, OverheadIsLinearInParams)
{
    // For fixed (gpu, k), S must be (wobbled) linear in param bytes.
    const double input_bytes = 20e6;
    for (GpuModel gpu : allGpuModels()) {
        for (int k = 1; k <= 4; ++k) {
            const double at_20m =
                commOverheadUs(gpu, k, 20e6 * 4, input_bytes);
            const double at_140m =
                commOverheadUs(gpu, k, 140e6 * 4, input_bytes);
            EXPECT_GT(at_140m, at_20m);
            // Slope bounded: ratio within the wobble-widened linear
            // band (exact linearity would give <= 7x here).
            EXPECT_LT(at_140m / at_20m, 9.0);
        }
    }
}

TEST(InterconnectTest, OverheadGrowsWithGpuCount)
{
    const double params = 25e6 * 4;
    for (GpuModel gpu : allGpuModels()) {
        double previous = 0.0;
        for (int k = 1; k <= 4; ++k) {
            const double overhead =
                commOverheadUs(gpu, k, params, 20e6);
            EXPECT_GT(overhead, previous * 0.9)
                << gpuModelName(gpu) << " k=" << k;
            previous = overhead;
        }
    }
}

TEST(InterconnectTest, CounterBasedSampleIsPureAndNearMean)
{
    // The (seed, iteration)-keyed overload used by the batched
    // simulator: same key gives the same draw, different iterations
    // decorrelate, and the noise stays centred on the mean overhead.
    const double mean =
        commOverheadUs(GpuModel::V100, 4, 100e6, 20e6);
    EXPECT_DOUBLE_EQ(
        sampleCommOverheadUs(GpuModel::V100, 4, 100e6, 20e6, 9, 17),
        sampleCommOverheadUs(GpuModel::V100, 4, 100e6, 20e6, 9, 17));
    EXPECT_NE(
        sampleCommOverheadUs(GpuModel::V100, 4, 100e6, 20e6, 9, 17),
        sampleCommOverheadUs(GpuModel::V100, 4, 100e6, 20e6, 9, 18));
    util::RunningStats stats;
    for (std::int64_t iter = 0; iter < 2000; ++iter)
        stats.add(sampleCommOverheadUs(GpuModel::V100, 4, 100e6, 20e6,
                                       5, iter));
    EXPECT_NEAR(stats.mean(), mean, 0.03 * mean);
    EXPECT_LT(stats.normalizedStddev(), 0.1);
}

TEST(InterconnectTest, InvalidGpuCountDies)
{
    EXPECT_DEATH(commOverheadUs(GpuModel::V100, 0, 1e6, 1e6), "num_gpus");
}

} // namespace
} // namespace hw
} // namespace ceer

/**
 * @file
 * Property-style tests: parameterized sweeps asserting invariants of
 * shape inference, the cost model, the timing model, the interconnect
 * model and the regression machinery across wide input grids.
 */

#include <cmath>
#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "baselines/evaluate.h"
#include "baselines/predictor.h"
#include "core/regression.h"
#include "graph/shape_inference.h"
#include "hw/device_model.h"
#include "hw/interconnect.h"
#include "hw/op_cost.h"
#include "models/model_zoo.h"
#include "profile/profiler.h"
#include "util/random.h"

namespace ceer {
namespace {

using graph::Node;
using graph::OpAttrs;
using graph::OpType;
using graph::PaddingMode;
using graph::TensorShape;
using hw::GpuModel;

// --- Shape-inference sweep: SAME/VALID over kernel x stride grids ---

struct ConvCase
{
    int input;
    int kernel;
    int stride;
};

class ConvDimSweep : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvDimSweep, SamePaddingIsCeilDiv)
{
    const auto &c = GetParam();
    const std::int64_t out =
        graph::convOutputDim(c.input, c.kernel, c.stride,
                             PaddingMode::Same);
    EXPECT_EQ(out, (c.input + c.stride - 1) / c.stride);
}

TEST_P(ConvDimSweep, ValidPaddingNeverExceedsSame)
{
    const auto &c = GetParam();
    if (c.kernel > c.input)
        return; // VALID undefined; covered by death tests.
    const std::int64_t valid = graph::convOutputDim(
        c.input, c.kernel, c.stride, PaddingMode::Valid);
    const std::int64_t same = graph::convOutputDim(
        c.input, c.kernel, c.stride, PaddingMode::Same);
    EXPECT_LE(valid, same);
    EXPECT_GE(valid, 1);
    // Every output position must map inside the input.
    EXPECT_LE((valid - 1) * c.stride + c.kernel, c.input);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvDimSweep,
    ::testing::Values(ConvCase{224, 3, 1}, ConvCase{224, 3, 2},
                      ConvCase{224, 7, 2}, ConvCase{227, 11, 4},
                      ConvCase{299, 3, 2}, ConvCase{35, 3, 1},
                      ConvCase{17, 7, 1}, ConvCase{8, 3, 1},
                      ConvCase{56, 1, 1}, ConvCase{56, 1, 2},
                      ConvCase{299, 5, 3}, ConvCase{11, 11, 4}),
    [](const auto &info) {
        return "in" + std::to_string(info.param.input) + "_k" +
               std::to_string(info.param.kernel) + "_s" +
               std::to_string(info.param.stride);
    });

// --- Cost-model invariants across op categories ---

Node
convNode(std::int64_t batch, int hw_dim, int channels, int kernel,
         int stride)
{
    OpAttrs attrs;
    attrs.kernelH = attrs.kernelW = kernel;
    attrs.strideH = attrs.strideW = stride;
    attrs.filterShape = TensorShape{kernel, kernel, channels, channels};
    Node node;
    node.type = OpType::Conv2D;
    node.inputShapes = {TensorShape::nhwc(batch, hw_dim, hw_dim,
                                          channels),
                        attrs.filterShape};
    node.outputShape = graph::conv2dOutputShape(
        node.inputShapes[0], channels, kernel, kernel, stride,
        PaddingMode::Same);
    node.attrs = attrs;
    return node;
}

class BatchLinearitySweep : public ::testing::TestWithParam<int>
{
};

TEST_P(BatchLinearitySweep, ConvFlopsScaleLinearlyWithBatch)
{
    const int kernel = GetParam();
    const hw::OpCost at8 = hw::opCost(convNode(8, 28, 64, kernel, 1));
    const hw::OpCost at32 = hw::opCost(convNode(32, 28, 64, kernel, 1));
    EXPECT_NEAR(at32.flops / at8.flops, 4.0, 1e-9);
    // Bytes are *sub*-linear in batch: the filter term is fixed.
    EXPECT_LE(at32.bytes, 4.0 * at8.bytes);
    EXPECT_GT(at32.bytes, at8.bytes);
}

TEST_P(BatchLinearitySweep, StrideReducesWork)
{
    const int kernel = GetParam();
    const hw::OpCost s1 = hw::opCost(convNode(16, 56, 64, kernel, 1));
    const hw::OpCost s2 = hw::opCost(convNode(16, 56, 64, kernel, 2));
    EXPECT_NEAR(s1.flops / s2.flops, 4.0, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Kernels, BatchLinearitySweep,
                         ::testing::Values(1, 3, 5, 7),
                         [](const auto &info) {
                             std::string name = "k";
                             name += std::to_string(info.param);
                             return name;
                         });

TEST(CostSymmetryTest, BackwardConvMatchesForwardMacs)
{
    // Fwd, BackpropInput and BackpropFilter perform the same MACs.
    const Node fwd = convNode(32, 28, 64, 3, 1);
    Node bwd_input = fwd;
    bwd_input.type = OpType::Conv2DBackpropInput;
    Node bwd_filter = fwd;
    bwd_filter.type = OpType::Conv2DBackpropFilter;
    bwd_filter.inputShapes = {fwd.inputShapes[0], fwd.outputShape};
    bwd_filter.outputShape = fwd.attrs.filterShape;

    const double f = hw::opCost(fwd).flops;
    EXPECT_NEAR(hw::opCost(bwd_input).flops / f, 1.0, 1e-9);
    EXPECT_NEAR(hw::opCost(bwd_filter).flops / f, 1.0, 1e-9);
}

// --- Timing monotonicity across GPUs and sizes ---

class GpuSweep : public ::testing::TestWithParam<GpuModel>
{
};

TEST_P(GpuSweep, TimeMonotoneInProblemSize)
{
    // 2x more elements dominates the +-10% instance wobble.
    hw::GpuTimingModel model(GetParam());
    double previous = 0.0;
    for (int hw_dim : {14, 20, 28, 40, 56, 80, 112}) {
        const double t =
            model.timing(convNode(16, hw_dim, 32, 3, 1)).meanUs;
        EXPECT_GT(t, previous) << "at " << hw_dim;
        previous = t;
    }
}

TEST_P(GpuSweep, LaunchOverheadIsTheFloor)
{
    hw::GpuTimingModel model(GetParam());
    Node tiny;
    tiny.type = OpType::Identity;
    tiny.inputShapes = {TensorShape{1}};
    tiny.outputShape = TensorShape{1};
    EXPECT_GE(model.timing(tiny).meanUs,
              hw::gpuSpec(GetParam()).kernelLaunchUs * 0.99);
}

TEST_P(GpuSweep, SigmaWithinDesignRange)
{
    hw::GpuTimingModel model(GetParam());
    for (int hw_dim : {7, 14, 28, 56, 112}) {
        const Node node = convNode(32, hw_dim, 64, 3, 1);
        const double sigma = model.instanceSigma(node);
        EXPECT_GE(sigma, 0.012);
        EXPECT_LE(sigma, 0.112);
        const double effective = model.timing(node).sigma;
        EXPECT_GE(effective, sigma);
        EXPECT_LE(effective, 0.40);
    }
}

TEST_P(GpuSweep, CommOverheadMonotoneInParamsAndGpus)
{
    const GpuModel gpu = GetParam();
    double previous_k = 0.0;
    for (int k = 1; k <= 6; ++k) {
        const double at_k =
            hw::commOverheadUs(gpu, k, 50e6 * 4, 20e6);
        EXPECT_GT(at_k, previous_k * 0.99) << "k=" << k;
        previous_k = at_k;
        double previous_p = 0.0;
        for (double params_m : {5.0, 25.0, 60.0, 145.0}) {
            const double overhead = hw::commOverheadUs(
                gpu, k, params_m * 1e6 * 4, 20e6);
            EXPECT_GT(overhead, previous_p)
                << "k=" << k << " params=" << params_m;
            previous_p = overhead;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllGpus, GpuSweep,
                         ::testing::ValuesIn(hw::allGpuModels()),
                         [](const auto &info) {
                             return hw::gpuModelName(info.param);
                         });

// --- Regression recovery sweep over feature dimensions ---

class RegressionDimSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RegressionDimSweep, RecoversPlantedLinearModel)
{
    const int dim = GetParam();
    util::Rng rng(1000 + dim);
    std::vector<double> weights;
    for (int j = 0; j < dim; ++j)
        weights.push_back(rng.uniform(-5.0, 5.0));
    const double intercept = rng.uniform(-100.0, 100.0);

    std::vector<std::vector<double>> X;
    std::vector<double> y;
    for (int i = 0; i < 60 * dim; ++i) {
        std::vector<double> row;
        double target = intercept;
        for (int j = 0; j < dim; ++j) {
            // Feature scales spanning 6 orders of magnitude.
            const double value =
                rng.uniform(0.0, std::pow(10.0, 2 + j));
            row.push_back(value);
            target += weights[static_cast<std::size_t>(j)] * value;
        }
        X.push_back(std::move(row));
        y.push_back(target + 0.5 * rng.normal());
    }
    const core::LinearModel model = core::LinearModel::fit(X, y);
    EXPECT_GT(model.rSquared(X, y), 0.999);
    const auto recovered = model.weights();
    for (int j = 0; j < dim; ++j) {
        EXPECT_NEAR(recovered[static_cast<std::size_t>(j)],
                    weights[static_cast<std::size_t>(j)],
                    0.05 + 0.02 * std::abs(weights[j]))
            << "dim " << j;
    }
}

INSTANTIATE_TEST_SUITE_P(Dims, RegressionDimSweep,
                         ::testing::Values(1, 2, 3, 4, 6),
                         [](const auto &info) {
                             std::string name = "d";
                             name += std::to_string(info.param);
                             return name;
                         });

// --- Predictor contract: every registered baseline engine ---
//
// The baselines::Predictor documentation promises that every engine
// the factory builds is deterministic, finite and non-negative on the
// whole model zoo, and monotone non-decreasing in the data-parallel
// width. These sweeps hold each registered engine to that contract,
// so a new engine cannot land without inheriting it.

class PredictorContract : public ::testing::TestWithParam<std::string>
{
  protected:
    /** A small shared training dataset (2 CNNs, all four GPUs). */
    static const profile::ProfileDataset &
    dataset()
    {
        static const profile::ProfileDataset d = [] {
            profile::CollectOptions options;
            options.iterations = 10;
            return profile::collectProfiles({"vgg_11", "inception_v1"},
                                            options);
        }();
        return d;
    }

    /** The whole zoo, built once for the suite. */
    static const std::vector<graph::Graph> &
    zoo()
    {
        static const std::vector<graph::Graph> z = [] {
            std::vector<graph::Graph> graphs;
            graphs.reserve(models::allModelNames().size());
            for (const std::string &name : models::allModelNames())
                graphs.push_back(models::buildModel(name, 32));
            return graphs;
        }();
        return z;
    }

    /** The engine under test, trained on dataset(). */
    static std::unique_ptr<baselines::Predictor>
    engine()
    {
        return std::move(
            baselines::makePredictors({GetParam()}, dataset()).front());
    }

    /** The engine's V100 x {1, 2, 4, 8} grid for @p g. */
    static std::vector<double>
    grid(const baselines::Predictor &predictor, const graph::Graph &g)
    {
        const std::vector<hw::GpuModel> gpus = {hw::GpuModel::V100};
        const std::vector<int> ks = {1, 2, 4, 8};
        std::vector<double> out(ks.size());
        predictor.predictGrid(g, gpus, ks, out);
        return out;
    }
};

TEST_P(PredictorContract, FiniteDeterministicAndMonotoneInK)
{
    const std::unique_ptr<baselines::Predictor> predictor = engine();
    EXPECT_EQ(predictor->name(), GetParam());
    const std::vector<hw::GpuModel> &gpus = hw::allGpuModels();
    const std::vector<int> ks = {1, 2, 4, 8};
    for (std::size_t m = 0; m < zoo().size(); ++m) {
        const graph::Graph &g = zoo()[m];
        std::vector<double> us(gpus.size() * ks.size());
        predictor->predictGrid(g, gpus, ks, us);
        for (std::size_t gi = 0; gi < gpus.size(); ++gi) {
            double previous = 0.0;
            for (std::size_t ki = 0; ki < ks.size(); ++ki) {
                const double cell = us[gi * ks.size() + ki];
                EXPECT_TRUE(std::isfinite(cell))
                    << models::allModelNames()[m] << " k=" << ks[ki];
                EXPECT_GE(cell, 0.0)
                    << models::allModelNames()[m] << " k=" << ks[ki];
                EXPECT_GE(cell, previous)
                    << models::allModelNames()[m]
                    << ": prediction decreased from k=" << ks[ki];
                previous = cell;
            }
        }
        std::vector<double> again(us.size());
        predictor->predictGrid(g, gpus, ks, again);
        EXPECT_EQ(us, again) << models::allModelNames()[m]
                             << ": repeated call differed";
    }
}

TEST_P(PredictorContract, RetrainingIsIdempotent)
{
    // Two engines built from one dataset predict bit-identically.
    const std::unique_ptr<baselines::Predictor> first = engine();
    const std::unique_ptr<baselines::Predictor> second = engine();
    for (const graph::Graph &g : zoo())
        EXPECT_EQ(grid(*first, g), grid(*second, g)) << g.name();
}

TEST_P(PredictorContract, EvaluationReportIsThreadInvariant)
{
    const std::vector<std::unique_ptr<baselines::Predictor>>
        predictors = baselines::makePredictors({GetParam()}, dataset());
    baselines::EvalOptions options;
    options.models = {"alexnet", "inception_v1"};
    options.ks = {1, 2, 4};
    options.evalIterations = 6;
    std::string baseline;
    for (const int threads : {1, 2, 4, 8}) {
        options.threads = threads;
        const baselines::EvalReport report =
            baselines::runEvaluation(predictors, options);
        std::ostringstream csv;
        report.saveCsv(csv);
        if (threads == 1)
            baseline = csv.str();
        else
            EXPECT_EQ(baseline, csv.str())
                << "report differs at " << threads << " threads";
    }
    EXPECT_FALSE(baseline.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Engines, PredictorContract,
    ::testing::ValuesIn(baselines::allPredictorNames()),
    [](const auto &info) { return info.param; });

} // namespace
} // namespace ceer

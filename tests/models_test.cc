/**
 * @file
 * Tests for the 12-CNN model zoo: structural validity, realistic
 * parameter counts, op mixes and batch-size behaviour.
 */

#include <map>
#include <ostream>
#include <set>

#include <gtest/gtest.h>

#include "models/model_zoo.h"

namespace ceer {
namespace models {
namespace {

using graph::Device;
using graph::Graph;
using graph::OpType;

std::map<OpType, int>
opCounts(const Graph &g)
{
    std::map<OpType, int> counts;
    for (const auto &node : g.nodes())
        ++counts[node.type];
    return counts;
}

TEST(ModelZooTest, RegistryCoversTwelveModels)
{
    EXPECT_EQ(allModelNames().size(), 12u);
    EXPECT_EQ(trainingSetNames().size(), 8u);
    EXPECT_EQ(testSetNames().size(), 4u);

    // Train/test sets partition the zoo (paper Sec. III).
    std::set<std::string> all(allModelNames().begin(),
                              allModelNames().end());
    std::set<std::string> seen;
    for (const auto &name : trainingSetNames()) {
        EXPECT_TRUE(all.count(name)) << name;
        EXPECT_TRUE(seen.insert(name).second) << name;
    }
    for (const auto &name : testSetNames()) {
        EXPECT_TRUE(all.count(name)) << name;
        EXPECT_TRUE(seen.insert(name).second) << name;
    }
    EXPECT_EQ(seen.size(), 12u);
}

TEST(ModelZooTest, TestSetMatchesPaper)
{
    const auto &test = testSetNames();
    EXPECT_NE(std::find(test.begin(), test.end(), "inception_v3"),
              test.end());
    EXPECT_NE(std::find(test.begin(), test.end(), "alexnet"),
              test.end());
    EXPECT_NE(std::find(test.begin(), test.end(), "resnet_101"),
              test.end());
    EXPECT_NE(std::find(test.begin(), test.end(), "vgg_19"), test.end());
}

/** Parameterized across all zoo models. */
class EveryModelTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryModelTest, BuildsValidGraph)
{
    Graph g = buildModel(GetParam(), 32);
    std::string error;
    EXPECT_TRUE(g.validate(&error)) << error;
    EXPECT_GT(g.size(), 100u);
    EXPECT_GT(g.totalParameters(), 1'000'000);
    EXPECT_GT(g.cpuOpCount(), 0u);
    EXPECT_GT(g.gpuOpCount(), 50u);
}

TEST_P(EveryModelTest, HasForwardAndBackwardConvs)
{
    Graph g = buildModel(GetParam(), 8);
    const auto counts = opCounts(g);
    EXPECT_GT(counts.count(OpType::Conv2D), 0u);
    EXPECT_GT(counts.at(OpType::Conv2DBackpropFilter), 0);
    EXPECT_GT(counts.at(OpType::ApplyGradientDescent), 0);
    // Every conv except possibly the first gets an input gradient.
    EXPECT_GE(counts.at(OpType::Conv2DBackpropFilter),
              counts.at(OpType::Conv2DBackpropInput));
    EXPECT_LE(counts.at(OpType::Conv2DBackpropFilter) -
                  counts.at(OpType::Conv2DBackpropInput),
              1);
}

TEST_P(EveryModelTest, BatchScalesActivationsNotParams)
{
    Graph g8 = buildModel(GetParam(), 8);
    Graph g32 = buildModel(GetParam(), 32);
    EXPECT_EQ(g8.totalParameters(), g32.totalParameters());
    EXPECT_EQ(g8.size(), g32.size());
    // Find the first Conv2D in each and compare input batch dims.
    for (std::size_t i = 0; i < g8.size(); ++i) {
        const auto &n8 = g8.nodes()[i];
        if (n8.type == OpType::Conv2D) {
            const auto &n32 = g32.nodes()[i];
            EXPECT_EQ(n8.inputShapes[0].batch(), 8);
            EXPECT_EQ(n32.inputShapes[0].batch(), 32);
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, EveryModelTest,
                         ::testing::ValuesIn(allModelNames()),
                         [](const auto &info) { return info.param; });

// --- Parameter-count plausibility (published values, +-12%) ---

struct ParamExpectation
{
    const char *name;
    double expected_millions;
};

// Print the fields, not the raw bytes: gtest's default dump includes
// the name pointer, which ASLR changes from run to run, and the dump
// becomes part of the test name ctest registers. The name is already
// the test's suffix, so only the expected count is printed.
void
PrintTo(const ParamExpectation &expectation, std::ostream *os)
{
    *os << expectation.expected_millions << "M params";
}

class ParamCountTest : public ::testing::TestWithParam<ParamExpectation>
{
};

TEST_P(ParamCountTest, MatchesPublishedCount)
{
    const auto &expectation = GetParam();
    Graph g = buildModel(expectation.name, 32);
    const double millions =
        static_cast<double>(g.totalParameters()) / 1e6;
    EXPECT_NEAR(millions, expectation.expected_millions,
                expectation.expected_millions * 0.12)
        << expectation.name << " has " << millions << "M params";
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ParamCountTest,
    ::testing::Values(ParamExpectation{"alexnet", 61.0},
                      ParamExpectation{"vgg_11", 132.9},
                      ParamExpectation{"vgg_16", 138.4},
                      ParamExpectation{"vgg_19", 143.7},
                      ParamExpectation{"inception_v1", 6.6},
                      ParamExpectation{"inception_v3", 23.8},
                      ParamExpectation{"inception_v4", 42.7},
                      ParamExpectation{"resnet_50", 25.6},
                      ParamExpectation{"resnet_101", 44.5},
                      ParamExpectation{"resnet_152", 60.2},
                      ParamExpectation{"resnet_200", 64.7},
                      ParamExpectation{"inception_resnet_v2", 55.8}),
    [](const auto &info) { return std::string(info.param.name); });

// --- Architecture-specific structure ---

TEST(ModelStructureTest, AlexNetUsesLrnAndNoBatchNorm)
{
    Graph g = buildAlexNet(32);
    const auto counts = opCounts(g);
    EXPECT_EQ(counts.at(OpType::Lrn), 2);
    EXPECT_EQ(counts.count(OpType::FusedBatchNormV3), 0u);
    EXPECT_GT(counts.at(OpType::BiasAdd), 5);
    // 3 FC layers: 3 forward MatMuls + 6 backward.
    EXPECT_EQ(counts.at(OpType::MatMul), 9);
}

TEST(ModelStructureTest, VggDepthsDifferInConvCount)
{
    const auto c11 = opCounts(buildVgg(11, 8));
    const auto c16 = opCounts(buildVgg(16, 8));
    const auto c19 = opCounts(buildVgg(19, 8));
    EXPECT_EQ(c11.at(OpType::Conv2D), 8);
    EXPECT_EQ(c16.at(OpType::Conv2D), 13);
    EXPECT_EQ(c19.at(OpType::Conv2D), 16);
    EXPECT_EQ(c19.at(OpType::MaxPool), 5);
}

TEST(ModelStructureTest, ResNetIsAddHeavyAndPoolLight)
{
    Graph g = buildResNetV2(101, 8);
    const auto counts = opCounts(g);
    // 33 bottleneck blocks -> 33 AddV2 (plus the global-step add).
    EXPECT_GE(counts.at(OpType::AddV2), 33);
    // Residual fan-out must produce AddN gradients.
    EXPECT_GT(counts.at(OpType::AddN), 10);
    // Few pooling ops: stem max pool only (global avg pool is Mean).
    EXPECT_LE(counts.at(OpType::MaxPool), 2);
    EXPECT_EQ(counts.count(OpType::AvgPool), 0u);
    EXPECT_GT(counts.at(OpType::FusedBatchNormV3), 90);
}

TEST(ModelStructureTest, InceptionV3IsConcatAndPoolHeavy)
{
    Graph g = buildInceptionV3(8);
    const auto counts = opCounts(g);
    EXPECT_GT(counts.at(OpType::ConcatV2), 10);
    EXPECT_GT(counts.at(OpType::AvgPool), 5);
    EXPECT_GT(counts.at(OpType::MaxPool), 3);
    // Concat gradients are slices.
    EXPECT_GT(counts.at(OpType::Slice), 30);
}

TEST(ModelStructureTest, InceptionResNetHasBothConcatAndResidual)
{
    Graph g = buildInceptionResNetV2(8);
    const auto counts = opCounts(g);
    EXPECT_GT(counts.at(OpType::ConcatV2), 15);
    EXPECT_GE(counts.at(OpType::AddV2), 20);
    EXPECT_GT(counts.at(OpType::Mul), 20);
}

TEST(ModelStructureTest, ResNetDepthsOrderedBySize)
{
    const auto p50 = buildResNetV2(50, 8).totalParameters();
    const auto p101 = buildResNetV2(101, 8).totalParameters();
    const auto p152 = buildResNetV2(152, 8).totalParameters();
    const auto p200 = buildResNetV2(200, 8).totalParameters();
    EXPECT_LT(p50, p101);
    EXPECT_LT(p101, p152);
    EXPECT_LT(p152, p200);
}

TEST(ModelStructureTest, InputSizesMatchArchitectures)
{
    EXPECT_EQ(modelInputSize("alexnet"), 227);
    EXPECT_EQ(modelInputSize("vgg_19"), 224);
    EXPECT_EQ(modelInputSize("inception_v1"), 224);
    EXPECT_EQ(modelInputSize("inception_v3"), 299);
    EXPECT_EQ(modelInputSize("inception_resnet_v2"), 299);
    EXPECT_EQ(modelInputSize("resnet_101"), 224);
}

TEST_P(EveryModelTest, EveryParamVarGetsExactlyOneUpdate)
{
    // Strong autodiff invariant: across the whole zoo, the number of
    // optimizer update ops equals the number of registered trainable
    // variables (each variable is updated exactly once per iteration).
    Graph g = buildModel(GetParam(), 8);
    std::size_t updates = 0;
    for (const auto &node : g.nodes())
        updates += node.type == OpType::ApplyGradientDescent;
    EXPECT_EQ(updates, g.paramVars().size());
}

TEST_P(EveryModelTest, GradientNodesAreMarked)
{
    Graph g = buildModel(GetParam(), 8);
    bool seen_gradient = false;
    for (const auto &node : g.nodes()) {
        if (node.isGradient)
            seen_gradient = true;
        else
            EXPECT_FALSE(seen_gradient)
                << "forward node after gradient region: " << node.name;
    }
    EXPECT_TRUE(seen_gradient);
}

TEST(ModelZooTest, UnknownModelNameIsFatal)
{
    EXPECT_DEATH(buildModel("lenet", 8), "unknown model");
}

} // namespace
} // namespace models
} // namespace ceer

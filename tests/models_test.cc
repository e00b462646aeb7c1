/**
 * @file
 * Tests for the 12-CNN model zoo: structural validity, realistic
 * parameter counts, op mixes and batch-size behaviour.
 */

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/model_zoo.h"
#include "serve/protocol.h"
#include "util/random.h"

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

// --- Golden graph digests ---

/**
 * One pinned graph: the serving fingerprint (structure, shapes, attrs,
 * parameter shapes) plus a digest of every node and parameter-variable
 * name, which the fingerprint leaves out.
 */
struct GraphDigest
{
    const char *model;
    std::int64_t batch;
    std::uint64_t fingerprint;
    std::uint64_t names;
};

/** The zoo plus the three extension builders, by graph name. */
Graph
buildForDigest(const std::string &model, std::int64_t batch)
{
    if (model == "transformer_encoder")
        return buildTransformerEncoder(batch);
    if (model == "lstm_classifier")
        return buildLstmClassifier(batch);
    if (model == "mobilenet_v1")
        return buildMobileNetV1(batch);
    return buildModel(model, batch);
}

std::uint64_t
nameDigest(const Graph &g)
{
    std::uint64_t h = util::hashMix(0x6e616d6573ULL, g.size());
    for (const auto &node : g.nodes())
        h = util::hashMix(h, node.name);
    h = util::hashMix(h, g.paramVars().size());
    for (const auto &param : g.paramVars())
        h = util::hashMix(h, param.name);
    return h;
}

// Computed before graph construction was reworked for allocation-light
// builds; every graph must stay byte-identical, names included.
const GraphDigest kGoldenDigests[] = {
    {"alexnet", 1, 0xa68bb031ca34d57dULL, 0xc930ee4d7efc1020ULL},
    {"alexnet", 32, 0xe8d3c42af9ae809dULL, 0xc930ee4d7efc1020ULL},
    {"alexnet", 512, 0xf7dbb13119667848ULL, 0xc930ee4d7efc1020ULL},
    {"vgg_11", 1, 0x8b5c1c8346cc979bULL, 0xb4033c4a5c1c1550ULL},
    {"vgg_11", 32, 0x19641bdbf8c8aa50ULL, 0xb4033c4a5c1c1550ULL},
    {"vgg_11", 512, 0xe3300ae27dec2505ULL, 0xb4033c4a5c1c1550ULL},
    {"vgg_16", 1, 0x8b760bf74787aff0ULL, 0x579f726ba350c7ccULL},
    {"vgg_16", 32, 0x0600484fbcfc1de7ULL, 0x579f726ba350c7ccULL},
    {"vgg_16", 512, 0x9a646a3a9e978f77ULL, 0x579f726ba350c7ccULL},
    {"vgg_19", 1, 0x8033622ba0703700ULL, 0x07761a49c83fa870ULL},
    {"vgg_19", 32, 0x699ec2f2c6dcd426ULL, 0x07761a49c83fa870ULL},
    {"vgg_19", 512, 0x3ec0836e6810c1f8ULL, 0x07761a49c83fa870ULL},
    {"inception_v1", 1, 0xc9286b2523abb954ULL, 0xbddfc4dd212da3a5ULL},
    {"inception_v1", 32, 0x569b701003538b6eULL, 0xbddfc4dd212da3a5ULL},
    {"inception_v1", 512, 0x4582e74d40437942ULL, 0xbddfc4dd212da3a5ULL},
    {"inception_v3", 1, 0x1a42a32504005ae4ULL, 0x3e66950c6b01d469ULL},
    {"inception_v3", 32, 0xd6c53064a2716710ULL, 0x3e66950c6b01d469ULL},
    {"inception_v3", 512, 0x16c775d342f265d0ULL, 0x3e66950c6b01d469ULL},
    {"inception_v4", 1, 0x49666f1861e54cafULL, 0x6edbfa390d164243ULL},
    {"inception_v4", 32, 0xf0a9671bdb1fcddcULL, 0x6edbfa390d164243ULL},
    {"inception_v4", 512, 0xd0803dc9313f6378ULL, 0x6edbfa390d164243ULL},
    {"resnet_50", 1, 0xfac299d5f1b5c07dULL, 0xbe773fffc1835671ULL},
    {"resnet_50", 32, 0x993635c25cddbb8fULL, 0xbe773fffc1835671ULL},
    {"resnet_50", 512, 0xd9f538d478b0892dULL, 0xbe773fffc1835671ULL},
    {"resnet_101", 1, 0x9db98a8828b015c0ULL, 0x6e08cf5c9b18f0a4ULL},
    {"resnet_101", 32, 0xda4970db96afce21ULL, 0x6e08cf5c9b18f0a4ULL},
    {"resnet_101", 512, 0x7fe868102f926c73ULL, 0x6e08cf5c9b18f0a4ULL},
    {"resnet_152", 1, 0x302e58db369c15daULL, 0xf68de035db77df47ULL},
    {"resnet_152", 32, 0x804fae05fa5319c7ULL, 0xf68de035db77df47ULL},
    {"resnet_152", 512, 0x45fb9be4c1a785afULL, 0xf68de035db77df47ULL},
    {"resnet_200", 1, 0x34933489b9d323b3ULL, 0xc19f984610978620ULL},
    {"resnet_200", 32, 0x0d73cd4398cfb6b5ULL, 0xc19f984610978620ULL},
    {"resnet_200", 512, 0x0b3f760e1886a406ULL, 0xc19f984610978620ULL},
    {"inception_resnet_v2", 1, 0x8faff4c36b12dc79ULL, 0xd35733e0cd024461ULL},
    {"inception_resnet_v2", 32, 0xd9efc9aeab52a31bULL, 0xd35733e0cd024461ULL},
    {"inception_resnet_v2", 512, 0xcc7632f099c50036ULL, 0xd35733e0cd024461ULL},
    {"transformer_encoder", 1, 0x0cf32ef3861fef22ULL, 0xf59a60a712bae75dULL},
    {"transformer_encoder", 32, 0x67849a741d5ecdb2ULL, 0xf59a60a712bae75dULL},
    {"transformer_encoder", 512, 0xed45cb4e81fff0e7ULL, 0xf59a60a712bae75dULL},
    {"lstm_classifier", 1, 0xe4244378f38ff4e1ULL, 0xdaeeff76b313332fULL},
    {"lstm_classifier", 32, 0x61ef5030e83b00aeULL, 0xdaeeff76b313332fULL},
    {"lstm_classifier", 512, 0xbea5ad5c625e4c5fULL, 0xdaeeff76b313332fULL},
    {"mobilenet_v1", 1, 0xd91c9063bba44e1aULL, 0x59a592a185ed283cULL},
    {"mobilenet_v1", 32, 0xac79ff8d017ba6a3ULL, 0x59a592a185ed283cULL},
    {"mobilenet_v1", 512, 0x1018069d84e1c22bULL, 0x59a592a185ed283cULL},
};

TEST(GraphDigestTest, EveryBuilderMatchesItsGoldenDigest)
{
    for (const GraphDigest &golden : kGoldenDigests) {
        const Graph g = buildForDigest(golden.model, golden.batch);
        EXPECT_EQ(serve::graphFingerprint(g), golden.fingerprint)
            << golden.model << " at batch " << golden.batch;
        EXPECT_EQ(nameDigest(g), golden.names)
            << golden.model << " at batch " << golden.batch;
    }
}

TEST(GraphDigestTest, GoldenTableCoversZooAndExtensions)
{
    std::vector<std::string> models = allModelNames();
    models.insert(models.end(), {"transformer_encoder", "lstm_classifier",
                                 "mobilenet_v1"});
    for (const std::string &model : models) {
        for (std::int64_t batch : {1, 32, 512}) {
            EXPECT_EQ(std::count_if(std::begin(kGoldenDigests),
                                    std::end(kGoldenDigests),
                                    [&](const GraphDigest &d) {
                                        return d.model == model &&
                                               d.batch == batch;
                                    }),
                      1)
                << model << " at batch " << batch;
        }
    }
    EXPECT_EQ(std::size(kGoldenDigests), models.size() * 3);
}

TEST(ModelZooTest, UnknownModelNameIsFatal)
{
    EXPECT_DEATH(buildModel("lenet", 8), "unknown model");
}

} // namespace
} // namespace models
} // namespace ceer

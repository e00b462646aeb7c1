/**
 * @file
 * Unit tests for the graph substrate: shapes, op registry, DAG
 * invariants, shape inference, builder expansion and autodiff.
 */

#include <gtest/gtest.h>

#include "graph/autodiff.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/op_type.h"
#include "graph/shape_inference.h"
#include "graph/tensor_shape.h"

namespace ceer {
namespace graph {
namespace {

TEST(TensorShapeTest, BasicAccessors)
{
    const TensorShape shape = TensorShape::nhwc(32, 224, 224, 3);
    EXPECT_EQ(shape.rank(), 4u);
    EXPECT_EQ(shape.batch(), 32);
    EXPECT_EQ(shape.height(), 224);
    EXPECT_EQ(shape.width(), 224);
    EXPECT_EQ(shape.channels(), 3);
    EXPECT_EQ(shape.numElements(), 32ll * 224 * 224 * 3);
    EXPECT_EQ(shape.numBytes(), shape.numElements() * 4);
    EXPECT_EQ(shape.toString(), "[32,224,224,3]");
}

TEST(TensorShapeTest, ScalarAndNegativeAxis)
{
    const TensorShape scalar{};
    EXPECT_EQ(scalar.rank(), 0u);
    EXPECT_EQ(scalar.numElements(), 1);

    const TensorShape m = TensorShape::matrix(8, 1000);
    EXPECT_EQ(m.dim(-1), 1000);
    EXPECT_EQ(m.channels(), 1000);
}

TEST(TensorShapeTest, DimsViewTheInlineDimensions)
{
    const TensorShape shape{2, 3, 5};
    ASSERT_EQ(shape.dims().size(), 3u);
    EXPECT_EQ(shape.dims()[2], 5);
    EXPECT_EQ(TensorShape(shape.dims()), shape);
    EXPECT_TRUE(TensorShape{}.dims().empty());
    // Equal leading dims but a different rank are different shapes.
    EXPECT_NE((TensorShape{2, 3}), (TensorShape{2, 3, 0}));
}

TEST(TensorShapeTest, RankAboveMaxIsFatal)
{
    EXPECT_EQ(TensorShape({1, 2, 3, 4}).rank(), TensorShape::kMaxRank);
    EXPECT_DEATH(TensorShape({1, 2, 3, 4, 5}), "exceeds the maximum");
}

TEST(OpTypeTest, NamesRoundTrip)
{
    for (OpType type : allOpTypes()) {
        OpType parsed;
        ASSERT_TRUE(opTypeFromName(opTypeName(type), parsed))
            << opTypeName(type);
        EXPECT_EQ(parsed, type);
    }
    OpType unused;
    EXPECT_FALSE(opTypeFromName("NotAnOp", unused));
}

TEST(OpTypeTest, DevicePlacementMatchesPaper)
{
    // SparseToDense is the paper's canonical CPU-only op (Sec. IV-B).
    EXPECT_EQ(opTypeInfo(OpType::SparseToDense).device, Device::Cpu);
    EXPECT_EQ(opTypeInfo(OpType::Conv2D).device, Device::Gpu);
    EXPECT_EQ(opTypeInfo(OpType::IteratorGetNext).device, Device::Cpu);
}

TEST(ShapeInferenceTest, SamePaddingCeilDivides)
{
    EXPECT_EQ(convOutputDim(224, 3, 1, PaddingMode::Same), 224);
    EXPECT_EQ(convOutputDim(224, 3, 2, PaddingMode::Same), 112);
    EXPECT_EQ(convOutputDim(35, 3, 2, PaddingMode::Same), 18);
}

TEST(ShapeInferenceTest, ValidPaddingShrinks)
{
    EXPECT_EQ(convOutputDim(227, 11, 4, PaddingMode::Valid), 55);
    EXPECT_EQ(convOutputDim(299, 3, 2, PaddingMode::Valid), 149);
    EXPECT_EQ(convOutputDim(28, 3, 1, PaddingMode::Valid), 26);
}

TEST(ShapeInferenceTest, Conv2dAndPoolShapes)
{
    const TensorShape input = TensorShape::nhwc(32, 56, 56, 64);
    EXPECT_EQ(conv2dOutputShape(input, 128, 3, 3, 2, PaddingMode::Same),
              TensorShape::nhwc(32, 28, 28, 128));
    EXPECT_EQ(poolOutputShape(input, 2, 2, 2, PaddingMode::Valid),
              TensorShape::nhwc(32, 28, 28, 64));
}

TEST(ShapeInferenceTest, ConcatAndFlatten)
{
    const TensorShape a = TensorShape::nhwc(8, 35, 35, 64);
    const TensorShape b = TensorShape::nhwc(8, 35, 35, 96);
    EXPECT_EQ(concatChannelsShape({a, b}),
              TensorShape::nhwc(8, 35, 35, 160));
    EXPECT_EQ(flattenShape(TensorShape::nhwc(8, 6, 6, 256)),
              TensorShape::matrix(8, 9216));
}

TEST(GraphTest, AddNodeRecordsShapesAndUniquifiesNames)
{
    Graph g("test");
    const TensorShape shape = TensorShape::nhwc(4, 8, 8, 16);
    const NodeId a = g.addNode("x", OpType::Identity, {}, {}, shape);
    const NodeId b = g.addNode("x", OpType::Relu, {a}, {}, shape);
    EXPECT_EQ(g.node(a).name, "x");
    EXPECT_EQ(g.node(b).name, "x_1");
    ASSERT_EQ(g.node(b).inputShapes.size(), 1u);
    EXPECT_EQ(g.node(b).inputShapes[0], shape);
    std::string error;
    EXPECT_TRUE(g.validate(&error)) << error;
}

TEST(GraphTest, UniquifierNeverCollidesWithASuffixedName)
{
    Graph g("test");
    const TensorShape shape{4};
    auto add = [&](const char *name) {
        return g.node(g.addNode(name, OpType::Identity, {}, {}, shape))
            .name;
    };
    EXPECT_EQ(add("x"), "x");
    EXPECT_EQ(add("x"), "x_1");
    // "x_1" is taken by the uniquified node above, TensorFlow-style.
    EXPECT_EQ(add("x_1"), "x_1_1");
    EXPECT_EQ(add("x_2"), "x_2");
    // The base's next suffix skips the explicitly named "x_2".
    EXPECT_EQ(add("x"), "x_3");
    EXPECT_EQ(add("x_1"), "x_1_2");
    std::string error;
    EXPECT_TRUE(g.validate(&error)) << error;

    // A copy keeps its own name index.
    Graph copy = g;
    EXPECT_EQ(copy.node(copy.addNode("x", OpType::Relu, {0}, {}, shape))
                  .name,
              "x_4");
    EXPECT_EQ(add("x"), "x_4");
}

TEST(GraphTest, NameIndexSurvivesGrowth)
{
    // Enough nodes to regrow the index several times, with every name
    // requested twice so each lookup also sees a hit.
    Graph g("test");
    const TensorShape shape{1};
    for (int i = 0; i < 500; ++i) {
        const std::string name = "layer" + std::to_string(i % 250);
        g.addNode(name, OpType::Identity, {}, {}, shape);
    }
    EXPECT_EQ(g.node(249).name, "layer249");
    EXPECT_EQ(g.node(250).name, "layer0_1");
    EXPECT_EQ(g.node(499).name, "layer249_1");
    std::string error;
    EXPECT_TRUE(g.validate(&error)) << error;
}

TEST(GraphTest, InputAndOutputBytes)
{
    Graph g("test");
    const TensorShape shape = TensorShape::nhwc(1, 10, 10, 10);
    const NodeId a = g.addNode("a", OpType::Identity, {}, {}, shape);
    const NodeId b = g.addNode("b", OpType::AddV2, {a, a}, {}, shape);
    EXPECT_EQ(g.node(b).inputBytes(), 2 * 1000 * 4);
    EXPECT_EQ(g.node(b).outputBytes(), 1000 * 4);
}

TEST(GraphTest, ConsumersAndCounts)
{
    Graph g("test");
    const TensorShape shape{16};
    const NodeId a = g.addNode("a", OpType::Identity, {}, {}, shape);
    const NodeId b = g.addNode("b", OpType::Relu, {a}, {}, shape);
    const NodeId c = g.addNode("c", OpType::Relu, {a}, {}, shape);
    g.addNode("d", OpType::AddV2, {b, c}, {}, shape);

    const auto &consumers = g.consumers();
    EXPECT_EQ(consumers[static_cast<std::size_t>(a)].size(), 2u);

    const auto counts = g.countByOpType();
    ASSERT_FALSE(counts.empty());
    EXPECT_EQ(counts[0].type, OpType::Relu);
    EXPECT_EQ(counts[0].count, 2u);
}

TEST(GraphTest, ParamVarsAccumulate)
{
    Graph g("test");
    g.addParamVar("w1", TensorShape{3, 3, 64, 128});
    g.addParamVar("b1", TensorShape{128});
    EXPECT_EQ(g.totalParameters(), 3ll * 3 * 64 * 128 + 128);
}

TEST(GraphTest, DotExportMentionsNodes)
{
    Graph g("tiny");
    const NodeId a =
        g.addNode("in", OpType::Identity, {}, {}, TensorShape{4});
    g.addNode("out", OpType::Relu, {a}, {}, TensorShape{4});
    const std::string dot = g.toDot();
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("Relu"), std::string::npos);
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

TEST(BuilderTest, ConvLayerExpandsToConvBnRelu)
{
    GraphBuilder b("m", 8);
    const NodeId x = b.imageInput(32, 32, 3);
    ConvOptions options;
    options.batchNorm = true;
    options.relu = true;
    b.conv2d(x, 16, 3, 3, options, "layer");
    Graph g = b.finish();

    bool saw_conv = false, saw_bn = false, saw_relu = false;
    for (const auto &node : g.nodes()) {
        saw_conv |= node.type == OpType::Conv2D;
        saw_bn |= node.type == OpType::FusedBatchNormV3;
        saw_relu |= node.type == OpType::Relu;
    }
    EXPECT_TRUE(saw_conv && saw_bn && saw_relu);
    // Filter (3*3*3*16) plus BN scale/offset (2*16).
    EXPECT_EQ(g.totalParameters(), 3ll * 3 * 3 * 16 + 32);
}

TEST(BuilderTest, ConvFilterShapeBecomesInputFeature)
{
    GraphBuilder b("m", 8);
    const NodeId x = b.imageInput(32, 32, 3);
    ConvOptions options;
    options.batchNorm = false;
    options.relu = false;
    b.conv2d(x, 16, 5, 5, options, "layer");
    Graph g = b.finish();
    for (const auto &node : g.nodes()) {
        if (node.type == OpType::Conv2D) {
            ASSERT_EQ(node.inputShapes.size(), 2u);
            EXPECT_EQ(node.inputShapes[1],
                      (TensorShape{5, 5, 3, 16}));
            EXPECT_EQ(node.attrs.filterShape,
                      (TensorShape{5, 5, 3, 16}));
            return;
        }
    }
    FAIL() << "Conv2D node not found";
}

TEST(BuilderTest, DropoutMaskChainIsNonDifferentiable)
{
    GraphBuilder b("m", 4);
    const NodeId x = b.imageInput(8, 8, 3);
    const NodeId flat = b.flatten(x, "flat");
    b.dropout(flat, "drop");
    Graph g = b.finish();
    bool saw_uniform = false;
    for (const auto &node : g.nodes()) {
        if (node.type == OpType::RandomUniform) {
            saw_uniform = true;
            EXPECT_EQ(node.device(), Device::Cpu);
            EXPECT_FALSE(isDifferentiable(node.type));
        }
    }
    EXPECT_TRUE(saw_uniform);
}

TEST(BuilderTest, SoftmaxLossAddsCpuLabelOps)
{
    GraphBuilder b("m", 4);
    NodeId x = b.imageInput(8, 8, 3);
    x = b.fullyConnected(x, 10, false, "logits");
    b.softmaxLoss(x);
    Graph g = b.finish();
    bool saw_sparse = false;
    for (const auto &node : g.nodes())
        saw_sparse |= node.type == OpType::SparseToDense;
    EXPECT_TRUE(saw_sparse);
    EXPECT_GT(g.cpuOpCount(), 2u);
}

/** Builds a tiny conv net and returns its trained graph. */
Graph
tinyTrainedNet()
{
    GraphBuilder b("tiny", 4);
    NodeId x = b.imageInput(16, 16, 3);
    ConvOptions options;
    options.batchNorm = true;
    x = b.conv2d(x, 8, 3, 3, options, "conv1");
    x = b.maxPool(x, 2, 2, PaddingMode::Valid, "pool1");
    x = b.fullyConnected(x, 10, false, "logits");
    const NodeId loss = b.softmaxLoss(x);
    addTrainingOps(b.graph(), loss);
    return b.finish();
}

TEST(AutodiffTest, EmitsExpectedBackwardOps)
{
    Graph g = tinyTrainedNet();
    std::string error;
    ASSERT_TRUE(g.validate(&error)) << error;

    std::map<OpType, int> counts;
    for (const auto &node : g.nodes())
        ++counts[node.type];

    EXPECT_EQ(counts[OpType::Conv2DBackpropFilter], 1);
    // First conv has the input pipeline as producer: no BackpropInput.
    EXPECT_EQ(counts[OpType::Conv2DBackpropInput], 0);
    EXPECT_EQ(counts[OpType::MaxPoolGrad], 1);
    EXPECT_EQ(counts[OpType::FusedBatchNormGradV3], 1);
    EXPECT_GE(counts[OpType::BiasAddGrad], 1);
    // MatMul: 1 forward + 2 backward.
    EXPECT_EQ(counts[OpType::MatMul], 3);
    // Updates: conv filter, bn scale+offset, fc weight+bias.
    EXPECT_EQ(counts[OpType::ApplyGradientDescent], 5);
}

TEST(AutodiffTest, BackwardShapesMirrorForward)
{
    Graph g = tinyTrainedNet();
    for (const auto &node : g.nodes()) {
        if (node.type == OpType::MaxPoolGrad) {
            // Gradient of the pool input has the pool input's shape.
            ASSERT_EQ(node.inputShapes.size(), 3u);
            EXPECT_EQ(node.outputShape, node.inputShapes[0]);
        }
        if (node.type == OpType::Conv2DBackpropFilter) {
            EXPECT_EQ(node.outputShape, node.attrs.filterShape);
        }
    }
}

TEST(AutodiffTest, ResidualFanOutCreatesAddN)
{
    GraphBuilder b("residual", 4);
    NodeId x = b.imageInput(8, 8, 3);
    ConvOptions options;
    options.batchNorm = false;
    options.bias = false;
    options.relu = false;
    // x (via conv to fix channels) feeds both a conv path and the add.
    NodeId base = b.conv2d(x, 8, 1, 1, options, "pre");
    NodeId path = b.conv2d(base, 8, 3, 3, options, "conv");
    NodeId sum = b.add(base, path, "residual");
    NodeId logits = b.fullyConnected(sum, 10, false, "logits");
    const NodeId loss = b.softmaxLoss(logits);
    addBackwardPass(b.graph(), loss);
    Graph g = b.finish();

    bool saw_addn = false;
    for (const auto &node : g.nodes())
        saw_addn |= node.type == OpType::AddN;
    EXPECT_TRUE(saw_addn)
        << "two gradient contributions should be summed with AddN";
}


TEST(AutodiffTest, PadAndTransposeBackwardOps)
{
    GraphBuilder b("pt", 4);
    NodeId x = b.imageInput(16, 16, 3);
    x = b.transpose(x, "fmt");
    x = b.pad(x, 2, "pad");
    ConvOptions options;
    options.batchNorm = false;
    options.relu = false;
    x = b.conv2d(x, 8, 3, 3, options, "conv");
    x = b.fullyConnected(x, 10, false, "logits");
    const NodeId loss = b.softmaxLoss(x);
    addBackwardPass(b.graph(), loss);
    Graph g = b.finish();

    std::map<OpType, int> counts;
    for (const auto &node : g.nodes())
        ++counts[node.type];
    // Pad backward is a Slice; Transpose backward is a Transpose.
    EXPECT_GE(counts[OpType::Slice], 1);
    EXPECT_EQ(counts[OpType::Transpose], 2);
    // Gradient of the pad input has the unpadded shape.
    for (const auto &node : g.nodes()) {
        if (node.type == OpType::Slice &&
            node.name.find("pad") != std::string::npos) {
            EXPECT_EQ(node.outputShape,
                      TensorShape::nhwc(4, 16, 16, 3));
        }
    }
}

TEST(AutodiffTest, LrnBackwardEmitsLrnGrad)
{
    GraphBuilder b("lrn", 4);
    NodeId x = b.imageInput(16, 16, 3);
    ConvOptions options;
    options.batchNorm = false;
    options.bias = true;
    x = b.conv2d(x, 8, 3, 3, options, "conv");
    x = b.lrn(x, "norm");
    x = b.fullyConnected(x, 10, false, "logits");
    const NodeId loss = b.softmaxLoss(x);
    addBackwardPass(b.graph(), loss);
    Graph g = b.finish();
    int lrn_grads = 0;
    for (const auto &node : g.nodes()) {
        if (node.type == OpType::LrnGrad) {
            ++lrn_grads;
            // LRNGrad reads grad, input and output: three inputs.
            EXPECT_EQ(node.inputs.size(), 3u);
        }
    }
    EXPECT_EQ(lrn_grads, 1);
}

TEST(AutodiffTest, GlobalAvgPoolBackwardIsTile)
{
    GraphBuilder b("gap", 4);
    NodeId x = b.imageInput(16, 16, 3);
    ConvOptions options;
    options.batchNorm = false;
    options.relu = false;
    x = b.conv2d(x, 8, 3, 3, options, "conv");
    const NodeId pooled = b.globalAvgPool(x, "gap");
    const NodeId logits = b.fullyConnected(pooled, 10, false, "logits");
    const NodeId loss = b.softmaxLoss(logits);
    addBackwardPass(b.graph(), loss);
    Graph g = b.finish();
    bool found = false;
    for (const auto &node : g.nodes()) {
        if (node.type == OpType::Tile &&
            node.name.find("gap") != std::string::npos) {
            found = true;
            EXPECT_EQ(node.outputShape, TensorShape::nhwc(4, 16, 16, 8));
        }
    }
    EXPECT_TRUE(found);
}

TEST(AutodiffTest, ConcatBackwardSlicesPerBranch)
{
    GraphBuilder b("cc", 4);
    NodeId x = b.imageInput(8, 8, 3);
    ConvOptions options;
    options.batchNorm = false;
    options.relu = false;
    const NodeId a = b.conv2d(x, 4, 1, 1, options, "a");
    const NodeId c = b.conv2d(x, 6, 1, 1, options, "c");
    const NodeId d = b.conv2d(x, 10, 1, 1, options, "d");
    const NodeId concat = b.concat({a, c, d}, "mixed");
    const NodeId logits = b.fullyConnected(concat, 10, false, "logits");
    const NodeId loss = b.softmaxLoss(logits);
    addBackwardPass(b.graph(), loss);
    Graph g = b.finish();

    std::vector<std::int64_t> slice_channels;
    for (const auto &node : g.nodes()) {
        if (node.type == OpType::Slice &&
            node.name.find("mixed") != std::string::npos) {
            slice_channels.push_back(node.outputShape.channels());
        }
    }
    std::sort(slice_channels.begin(), slice_channels.end());
    EXPECT_EQ(slice_channels, (std::vector<std::int64_t>{4, 6, 10}));
}

TEST(AutodiffTest, ScaleBackwardStaysInGraph)
{
    GraphBuilder b("sc", 4);
    NodeId x = b.imageInput(8, 8, 3);
    ConvOptions options;
    options.batchNorm = false;
    options.relu = false;
    NodeId y = b.conv2d(x, 4, 1, 1, options, "conv");
    y = b.scale(y, "scaled");
    const NodeId logits = b.fullyConnected(y, 10, false, "logits");
    const NodeId loss = b.softmaxLoss(logits);
    const std::size_t added = addBackwardPass(b.graph(), loss);
    EXPECT_GT(added, 5u);
    Graph g = b.finish();
    // The scale Mul gets a Mul gradient flowing into the conv path.
    bool saw_mul_grad = false;
    for (const auto &node : g.nodes()) {
        saw_mul_grad |= node.type == OpType::Mul && node.isGradient;
    }
    EXPECT_TRUE(saw_mul_grad);
}

TEST(AutodiffTest, LossMustBeScalar)
{
    GraphBuilder b("bad", 4);
    const NodeId x = b.imageInput(8, 8, 3);
    Graph &g = b.graph();
    EXPECT_DEATH(addBackwardPass(g, x), "scalar");
}

TEST(AutodiffTest, NoGradientsFlowIntoEvalBranch)
{
    Graph g = tinyTrainedNet();
    // The eval Softmax must have no grad consumers: nothing downstream
    // of it should be a gradient op consuming its id.
    NodeId softmax = kInvalidNode;
    for (const auto &node : g.nodes())
        if (node.type == OpType::Softmax)
            softmax = node.id;
    ASSERT_NE(softmax, kInvalidNode);
    for (const auto &node : g.nodes()) {
        if (node.name.rfind("grad/eval", 0) == 0)
            FAIL() << "gradient op in eval branch: " << node.name;
    }
}

} // namespace
} // namespace graph
} // namespace ceer

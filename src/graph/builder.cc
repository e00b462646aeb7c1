#include "graph/builder.h"

#include "util/logging.h"
#include "util/strings.h"

namespace ceer {
namespace graph {

GraphBuilder::GraphBuilder(std::string model_name, std::int64_t batch)
    : graph_(std::move(model_name)), batch_(batch)
{
    if (batch <= 0)
        util::panic("GraphBuilder: batch must be positive");
    graph_.setBatchSize(batch);
}

NodeId
GraphBuilder::imageInput(int height, int width, int channels)
{
    const TensorShape image =
        TensorShape::nhwc(batch_, height, width, channels);
    const NodeId decode =
        graph_.addNode("data/decode", OpType::DecodeJpeg, {}, {}, image);
    const NodeId iterator = graph_.addNode(
        "data/iterator", OpType::IteratorGetNext, {decode}, {}, image);

    // Labels arrive through the same pipeline.
    const TensorShape label_shape = TensorShape::vector(batch_);
    labels_ = graph_.addNode("data/labels", OpType::IteratorGetNext, {},
                             {}, label_shape);
    return iterator;
}

NodeId
GraphBuilder::labelsInput()
{
    if (labels_ == kInvalidNode)
        util::panic("labelsInput called before imageInput");
    return labels_;
}

NodeId
GraphBuilder::conv2d(NodeId x, std::int64_t out_channels, int kernel_h,
                     int kernel_w, const ConvOptions &options,
                     const std::string &name)
{
    const TensorShape input = shapeOf(x);
    if (options.strideH != options.strideW) {
        util::panic("conv2d: anisotropic strides are not supported by "
                    "the shape helpers");
    }
    const int stride = options.strideH;
    const TensorShape output = conv2dOutputShape(
        input, out_channels, kernel_h, kernel_w, stride, options.padding);
    const TensorShape filter{kernel_h, kernel_w, input.channels(),
                             out_channels};

    OpAttrs attrs;
    attrs.kernelH = kernel_h;
    attrs.kernelW = kernel_w;
    attrs.strideH = stride;
    attrs.strideW = stride;
    attrs.padding = options.padding;
    attrs.filterShape = filter;

    graph_.addParamVar(name + "/weights", filter);
    NodeId out = graph_.addNode(name + "/Conv2D", OpType::Conv2D, {x},
                                {filter}, output, attrs);

    if (options.batchNorm) {
        // Scale and offset are trainable; FusedBatchNormV3 reads four
        // [C] side inputs (scale, offset, moving mean/variance).
        const TensorShape channel_vec =
            TensorShape::vector(out_channels);
        graph_.addParamVar(name + "/bn/scale", channel_vec);
        graph_.addParamVar(name + "/bn/offset", channel_vec);
        OpAttrs bn_attrs;
        bn_attrs.filterShape = channel_vec;
        out = graph_.addNode(
            name + "/FusedBatchNormV3", OpType::FusedBatchNormV3, {out},
            {channel_vec, channel_vec, channel_vec, channel_vec}, output,
            bn_attrs);
    } else if (options.bias) {
        const TensorShape bias = TensorShape::vector(out_channels);
        graph_.addParamVar(name + "/bias", bias);
        OpAttrs bias_attrs;
        bias_attrs.filterShape = bias;
        out = graph_.addNode(name + "/BiasAdd", OpType::BiasAdd, {out},
                             {bias}, output, bias_attrs);
    }
    if (options.relu) {
        out = graph_.addNode(name + "/Relu", OpType::Relu, {out}, {},
                             output);
    }
    return out;
}

NodeId
GraphBuilder::depthwiseConv2d(NodeId x, int kernel, int stride,
                              const std::string &name)
{
    const TensorShape input = shapeOf(x);
    const TensorShape output = poolOutputShape(
        input, kernel, kernel, stride, PaddingMode::Same);
    const TensorShape filter{kernel, kernel, input.channels(), 1};

    OpAttrs attrs;
    attrs.kernelH = attrs.kernelW = kernel;
    attrs.strideH = attrs.strideW = stride;
    attrs.filterShape = filter;
    graph_.addParamVar(name + "/depthwise_weights", filter);
    NodeId out = graph_.addNode(name + "/DepthwiseConv2dNative",
                                OpType::DepthwiseConv2dNative, {x},
                                {filter}, output, attrs);
    out = batchNorm(out, name);
    return relu(out, name);
}

NodeId
GraphBuilder::tokenInput(int seq_len)
{
    const TensorShape tokens = TensorShape::matrix(batch_, seq_len);
    const NodeId iterator = graph_.addNode(
        "data/tokens", OpType::IteratorGetNext, {}, {}, tokens);
    labels_ = graph_.addNode("data/labels", OpType::IteratorGetNext,
                             {}, {}, TensorShape::vector(batch_));
    return iterator;
}

NodeId
GraphBuilder::embedding(NodeId indices, std::int64_t vocab,
                        std::int64_t dim, const std::string &name)
{
    const TensorShape ids = shapeOf(indices);
    const TensorShape table{vocab, dim};
    graph_.addParamVar(name + "/table", table);
    std::vector<std::int64_t> dims(ids.dims().begin(), ids.dims().end());
    dims.push_back(dim);
    OpAttrs attrs;
    attrs.filterShape = table;
    return graph_.addNode(name + "/Gather", OpType::Gather, {indices},
                          {}, TensorShape(dims), attrs);
}

NodeId
GraphBuilder::positionalEmbedding(NodeId x, const std::string &name)
{
    const TensorShape shape = shapeOf(x);
    if (shape.rank() != 3)
        util::panic("positionalEmbedding: input must be [N, S, D]");
    const TensorShape table{shape.dim(1), shape.dim(2)};
    graph_.addParamVar(name + "/table", table);
    return graph_.addNode(name + "/AddV2", OpType::AddV2, {x}, {table},
                          shape);
}

NodeId
GraphBuilder::layerNorm(NodeId x, const std::string &name)
{
    const TensorShape shape = shapeOf(x);
    const TensorShape vec = TensorShape::vector(shape.dim(-1));
    graph_.addParamVar(name + "/ln/scale", vec);
    graph_.addParamVar(name + "/ln/bias", vec);
    OpAttrs attrs;
    attrs.filterShape = vec;
    return graph_.addNode(name + "/LayerNorm", OpType::LayerNorm, {x},
                          {vec, vec}, shape, attrs);
}

NodeId
GraphBuilder::gelu(NodeId x, const std::string &name)
{
    const TensorShape shape = shapeOf(x);
    return graph_.addNode(name + "/Gelu", OpType::Gelu, {x}, {}, shape);
}

NodeId
GraphBuilder::tanh(NodeId x, const std::string &name)
{
    const TensorShape shape = shapeOf(x);
    return graph_.addNode(name + "/Tanh", OpType::Tanh, {x}, {}, shape);
}

NodeId
GraphBuilder::sigmoid(NodeId x, const std::string &name)
{
    const TensorShape shape = shapeOf(x);
    return graph_.addNode(name + "/Sigmoid", OpType::Sigmoid, {x}, {},
                          shape);
}

NodeId
GraphBuilder::timeStep(NodeId x, const std::string &name)
{
    const TensorShape shape = shapeOf(x);
    if (shape.rank() != 3)
        util::panic("timeStep: input must be [N, S, D]");
    return graph_.addNode(name + "/Slice", OpType::Slice, {x}, {},
                          TensorShape::matrix(shape.dim(0),
                                              shape.dim(2)));
}

NodeId
GraphBuilder::batchMatMul(NodeId a, NodeId b, const TensorShape &output,
                          const std::string &name)
{
    return graph_.addNode(name + "/BatchMatMul", OpType::BatchMatMul,
                          {a, b}, {}, output);
}

NodeId
GraphBuilder::reshape(NodeId x, const TensorShape &shape,
                      const std::string &name)
{
    if (shapeOf(x).numElements() != shape.numElements()) {
        util::panic(util::format(
            "reshape '%s': element count mismatch %s vs %s",
            name.c_str(), shapeOf(x).toString().c_str(),
            shape.toString().c_str()));
    }
    return graph_.addNode(name + "/Reshape", OpType::Reshape, {x}, {},
                          shape);
}

NodeId
GraphBuilder::firstToken(NodeId x, const std::string &name)
{
    const TensorShape shape = shapeOf(x);
    if (shape.rank() != 3)
        util::panic("firstToken: input must be [N, S, D]");
    return graph_.addNode(name + "/Slice", OpType::Slice, {x}, {},
                          TensorShape::matrix(shape.dim(0),
                                              shape.dim(2)));
}

NodeId
GraphBuilder::batchNorm(NodeId x, const std::string &name)
{
    const TensorShape shape = shapeOf(x);
    const TensorShape channel_vec =
        TensorShape::vector(shape.channels());
    graph_.addParamVar(name + "/bn/scale", channel_vec);
    graph_.addParamVar(name + "/bn/offset", channel_vec);
    OpAttrs attrs;
    attrs.filterShape = channel_vec;
    return graph_.addNode(
        name + "/FusedBatchNormV3", OpType::FusedBatchNormV3, {x},
        {channel_vec, channel_vec, channel_vec, channel_vec}, shape,
        attrs);
}

NodeId
GraphBuilder::relu(NodeId x, const std::string &name)
{
    const TensorShape shape = shapeOf(x);
    return graph_.addNode(name + "/Relu", OpType::Relu, {x}, {}, shape);
}

NodeId
GraphBuilder::maxPool(NodeId x, int window, int stride,
                      PaddingMode padding, const std::string &name)
{
    const TensorShape output =
        poolOutputShape(shapeOf(x), window, window, stride, padding);
    OpAttrs attrs;
    attrs.kernelH = window;
    attrs.kernelW = window;
    attrs.strideH = stride;
    attrs.strideW = stride;
    attrs.padding = padding;
    return graph_.addNode(name + "/MaxPool", OpType::MaxPool, {x}, {},
                          output, attrs);
}

NodeId
GraphBuilder::avgPool(NodeId x, int window, int stride,
                      PaddingMode padding, const std::string &name)
{
    const TensorShape output =
        poolOutputShape(shapeOf(x), window, window, stride, padding);
    OpAttrs attrs;
    attrs.kernelH = window;
    attrs.kernelW = window;
    attrs.strideH = stride;
    attrs.strideW = stride;
    attrs.padding = padding;
    return graph_.addNode(name + "/AvgPool", OpType::AvgPool, {x}, {},
                          output, attrs);
}

NodeId
GraphBuilder::globalAvgPool(NodeId x, const std::string &name)
{
    const TensorShape input = shapeOf(x);
    if (input.rank() != 4)
        util::panic("globalAvgPool: input must be NHWC");
    const TensorShape output =
        TensorShape::matrix(input.batch(), input.channels());
    return graph_.addNode(name + "/Mean", OpType::Mean, {x}, {}, output);
}

NodeId
GraphBuilder::lrn(NodeId x, const std::string &name)
{
    const TensorShape shape = shapeOf(x);
    OpAttrs attrs;
    attrs.depthRadius = 5;
    return graph_.addNode(name + "/LRN", OpType::Lrn, {x}, {}, shape,
                          attrs);
}

NodeId
GraphBuilder::dropout(NodeId x, const std::string &name)
{
    const TensorShape shape = shapeOf(x);
    const NodeId uniform = graph_.addNode(
        name + "/random_uniform", OpType::RandomUniform, {}, {}, shape);
    const NodeId ge = graph_.addNode(name + "/GreaterEqual",
                                     OpType::GreaterEqual, {uniform}, {},
                                     shape);
    const NodeId mask =
        graph_.addNode(name + "/Cast", OpType::Cast, {ge}, {}, shape);
    return graph_.addNode(name + "/Mul", OpType::Mul, {x, mask}, {},
                          shape);
}

NodeId
GraphBuilder::flatten(NodeId x, const std::string &name)
{
    const TensorShape input = shapeOf(x);
    if (input.rank() == 2)
        return x;
    return graph_.addNode(name + "/Reshape", OpType::Reshape, {x}, {},
                          flattenShape(input));
}

NodeId
GraphBuilder::fullyConnected(NodeId x, std::int64_t units, bool relu,
                             const std::string &name)
{
    NodeId flat = flatten(x, name);
    const TensorShape input = shapeOf(flat);
    const TensorShape weight =
        TensorShape::matrix(input.dim(1), units);
    const TensorShape output = TensorShape::matrix(input.batch(), units);

    graph_.addParamVar(name + "/weights", weight);
    OpAttrs attrs;
    attrs.filterShape = weight;
    NodeId out = graph_.addNode(name + "/MatMul", OpType::MatMul, {flat},
                                {weight}, output, attrs);

    const TensorShape bias = TensorShape::vector(units);
    graph_.addParamVar(name + "/bias", bias);
    OpAttrs bias_attrs;
    bias_attrs.filterShape = bias;
    out = graph_.addNode(name + "/BiasAdd", OpType::BiasAdd, {out},
                         {bias}, output, bias_attrs);
    if (relu)
        out = graph_.addNode(name + "/Relu", OpType::Relu, {out}, {},
                             output);
    return out;
}

NodeId
GraphBuilder::concat(const std::vector<NodeId> &inputs,
                     const std::string &name)
{
    std::vector<TensorShape> shapes;
    shapes.reserve(inputs.size());
    for (NodeId id : inputs)
        shapes.push_back(shapeOf(id));
    const TensorShape output = concatChannelsShape(shapes);
    OpAttrs attrs;
    attrs.axis = 3;
    return graph_.addNode(name + "/ConcatV2", OpType::ConcatV2, inputs,
                          {}, output, attrs);
}

NodeId
GraphBuilder::add(NodeId a, NodeId b, const std::string &name)
{
    const TensorShape shape = shapeOf(a);
    if (!(shape == shapeOf(b))) {
        util::panic(util::format(
            "add '%s': shape mismatch %s vs %s", name.c_str(),
            shape.toString().c_str(), shapeOf(b).toString().c_str()));
    }
    return graph_.addNode(name + "/AddV2", OpType::AddV2, {a, b}, {},
                          shape);
}

NodeId
GraphBuilder::pad(NodeId x, int padPixels, const std::string &name)
{
    const TensorShape input = shapeOf(x);
    if (input.rank() != 4)
        util::panic("pad: input must be NHWC");
    const TensorShape output = TensorShape::nhwc(
        input.batch(), input.height() + 2 * padPixels,
        input.width() + 2 * padPixels, input.channels());
    return graph_.addNode(name + "/Pad", OpType::Pad, {x}, {}, output);
}

NodeId
GraphBuilder::transpose(NodeId x, const std::string &name)
{
    const TensorShape shape = shapeOf(x);
    return graph_.addNode(name + "/Transpose", OpType::Transpose, {x},
                          {}, shape);
}

NodeId
GraphBuilder::scale(NodeId x, const std::string &name)
{
    const TensorShape shape = shapeOf(x);
    return graph_.addNode(name + "/Mul", OpType::Mul, {x},
                          {TensorShape{}}, shape);
}

NodeId
GraphBuilder::softmaxLoss(NodeId logits)
{
    const TensorShape logit_shape = shapeOf(logits);
    if (logit_shape.rank() != 2)
        util::panic("softmaxLoss: logits must be [N, classes]");
    const std::int64_t classes = logit_shape.dim(1);
    const NodeId labels = labelsInput();

    // CPU-side label densification, as the paper observed (Sec. IV-B):
    // SparseToDense/OneHot only have CPU kernels in TF r1.x.
    const NodeId one_hot = graph_.addNode(
        "loss/OneHot", OpType::OneHot, {labels}, {},
        TensorShape::matrix(batch_, classes));
    const NodeId dense = graph_.addNode(
        "loss/SparseToDense", OpType::SparseToDense, {one_hot}, {},
        TensorShape::matrix(batch_, classes));

    const NodeId xent = graph_.addNode(
        "loss/SoftmaxCrossEntropyWithLogits",
        OpType::SoftmaxCrossEntropyWithLogits, {logits, dense}, {},
        TensorShape::vector(batch_));
    loss_ = graph_.addNode("loss/Mean", OpType::Mean, {xent}, {},
                           TensorShape{});

    // Small evaluation branch (predictions/accuracy); receives no
    // gradients.
    const NodeId softmax = graph_.addNode(
        "eval/Softmax", OpType::Softmax, {logits}, {}, logit_shape);
    const NodeId argmax =
        graph_.addNode("eval/ArgMax", OpType::ArgMax, {softmax}, {},
                       TensorShape::vector(batch_));
    const NodeId correct = graph_.addNode(
        "eval/GreaterEqual", OpType::GreaterEqual, {argmax, labels}, {},
        TensorShape::vector(batch_));
    const NodeId cast = graph_.addNode(
        "eval/Cast", OpType::Cast, {correct}, {},
        TensorShape::vector(batch_));
    graph_.addNode("eval/Mean", OpType::Mean, {cast}, {}, TensorShape{});
    return loss_;
}

TensorShape
GraphBuilder::shapeOf(NodeId id) const
{
    return graph_.node(id).outputShape;
}

Graph
GraphBuilder::finish()
{
    std::string error;
    if (!graph_.validate(&error))
        util::panic("GraphBuilder::finish: invalid graph: " + error);
    return std::move(graph_);
}

} // namespace graph
} // namespace ceer

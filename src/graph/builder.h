/**
 * @file
 * Layer-level builder producing forward CNN graphs.
 *
 * The builder expands familiar layers (conv+bn+relu, pooling, fully
 * connected, dropout, inception branches, residual blocks) into the
 * operation-level nodes TensorFlow would execute, registering trainable
 * variables along the way. The backward pass is added separately by
 * @ref addBackwardPass.
 */

#ifndef CEER_GRAPH_BUILDER_H
#define CEER_GRAPH_BUILDER_H

#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/shape_inference.h"

namespace ceer {
namespace graph {

/** Options controlling the expansion of a convolution layer. */
struct ConvOptions
{
    bool batchNorm = true; ///< FusedBatchNormV3 after the conv.
    bool bias = false;     ///< BiasAdd after the conv (when no BN).
    bool relu = true;      ///< ReLU activation.
    int strideH = 1;       ///< Vertical stride.
    int strideW = 1;       ///< Horizontal stride.
    PaddingMode padding = PaddingMode::Same; ///< Padding mode.
};

/**
 * Builds a forward CNN graph layer by layer.
 *
 * Methods return the NodeId of the layer's final op, which acts as the
 * tensor handle for subsequent layers.
 */
class GraphBuilder
{
  public:
    /**
     * @param model_name Name for the resulting Graph.
     * @param batch      Batch size (per GPU).
     */
    GraphBuilder(std::string model_name, std::int64_t batch);

    /** Batch size this graph was built for. */
    std::int64_t batch() const { return batch_; }

    /**
     * Adds the input pipeline (DecodeJpeg + IteratorGetNext on CPU) and
     * returns the image tensor [N, h, w, c].
     */
    NodeId imageInput(int height, int width, int channels);

    /** Node producing the integer labels [N] (CPU). */
    NodeId labelsInput();

    /**
     * Convolution layer: Conv2D plus optional FusedBatchNormV3/BiasAdd
     * and Relu per @p options. Registers filter (and bias/BN) variables.
     *
     * @param x            Input tensor (NHWC).
     * @param out_channels Number of filters.
     * @param kernel_h     Filter height.
     * @param kernel_w     Filter width.
     * @param options      Stride/padding/activation options.
     * @param name         Layer name prefix.
     */
    NodeId conv2d(NodeId x, std::int64_t out_channels, int kernel_h,
                  int kernel_w, const ConvOptions &options,
                  const std::string &name);

    /**
     * Depthwise convolution (MobileNet): per-channel kh x kw filters,
     * followed by optional BN + ReLU like conv2d. Channel count is
     * preserved (depth multiplier 1).
     */
    NodeId depthwiseConv2d(NodeId x, int kernel, int stride,
                           const std::string &name);

    /**
     * Token-sequence input pipeline (Transformer models): integer ids
     * [N, seq_len] plus labels, both via the CPU pipeline.
     */
    NodeId tokenInput(int seq_len);

    /**
     * Embedding lookup: Gather from a [vocab, dim] table variable.
     * Gradients scatter into the table.
     */
    NodeId embedding(NodeId indices, std::int64_t vocab,
                     std::int64_t dim, const std::string &name);

    /**
     * Adds a learned positional-embedding table [seq, dim] to a
     * [N, seq, dim] activation.
     */
    NodeId positionalEmbedding(NodeId x, const std::string &name);

    /**
     * Standalone FusedBatchNormV3 (pre-activation ResNet-v2 style).
     * Registers scale/offset variables.
     */
    NodeId batchNorm(NodeId x, const std::string &name);

    /**
     * Layer normalization over the last dimension; registers scale and
     * bias variables of that dimension.
     */
    NodeId layerNorm(NodeId x, const std::string &name);

    /** GELU activation (Transformer feed-forward blocks). */
    NodeId gelu(NodeId x, const std::string &name);

    /** Tanh activation (BERT-style pooler, LSTM cells). */
    NodeId tanh(NodeId x, const std::string &name);

    /** Sigmoid activation (LSTM gates). */
    NodeId sigmoid(NodeId x, const std::string &name);

    /**
     * Slice one time step out of a [N, S, D] sequence -> [N, D]
     * (shape-wise; every step looks identical to the cost model).
     */
    NodeId timeStep(NodeId x, const std::string &name);

    /**
     * Batched matrix multiply of two activations: [..., M, K] x
     * [..., K, N] -> [..., M, N] per @p output shape (shapes are
     * caller-specified since attention reshapes heads in and out).
     */
    NodeId batchMatMul(NodeId a, NodeId b, const TensorShape &output,
                       const std::string &name);

    /** Reshape to an explicit shape (element count must match). */
    NodeId reshape(NodeId x, const TensorShape &shape,
                   const std::string &name);

    /** Slice the leading sequence position: [N, S, D] -> [N, D]. */
    NodeId firstToken(NodeId x, const std::string &name);

    /** Standalone ReLU activation. */
    NodeId relu(NodeId x, const std::string &name);

    /** Max pooling layer. */
    NodeId maxPool(NodeId x, int window, int stride, PaddingMode padding,
                   const std::string &name);

    /** Average pooling layer. */
    NodeId avgPool(NodeId x, int window, int stride, PaddingMode padding,
                   const std::string &name);

    /** Global average pooling (Mean over H,W) -> [N, C]. */
    NodeId globalAvgPool(NodeId x, const std::string &name);

    /** Local response normalization (AlexNet-era). */
    NodeId lrn(NodeId x, const std::string &name);

    /**
     * Dropout: CPU RandomUniform mask -> GreaterEqual -> Cast -> Mul.
     * The mask chain is non-differentiable; gradients flow only through
     * the Mul's data input.
     */
    NodeId dropout(NodeId x, const std::string &name);

    /** Flattens to [N, features] via Reshape (no-op for rank 2). */
    NodeId flatten(NodeId x, const std::string &name);

    /**
     * Fully connected layer: MatMul + BiasAdd (+ Relu). Flattens the
     * input if needed. Registers weight and bias variables.
     */
    NodeId fullyConnected(NodeId x, std::int64_t units, bool relu,
                          const std::string &name);

    /**
     * Last-axis concatenation: channels for NHWC inputs (inception
     * modules), features for rank-2 inputs (LSTM cell input).
     */
    NodeId concat(const std::vector<NodeId> &inputs,
                  const std::string &name);

    /** Elementwise residual addition (ResNet shortcut). */
    NodeId add(NodeId a, NodeId b, const std::string &name);

    /** Explicit spatial padding by @p pad pixels on each side. */
    NodeId pad(NodeId x, int padPixels, const std::string &name);

    /**
     * Data-format conversion (NHWC <-> NCHW) as TF inserts on GPU.
     * Modeled as a same-size Transpose so downstream NHWC shape
     * helpers keep working; the cost model only sees bytes moved.
     */
    NodeId transpose(NodeId x, const std::string &name);

    /** Elementwise scaling by a scalar (Inception-ResNet residual scale). */
    NodeId scale(NodeId x, const std::string &name);

    /**
     * Classifier head: softmax cross-entropy loss against the label
     * input, including the CPU-side SparseToDense/OneHot ops the paper
     * observed, plus a small evaluation branch (Softmax/ArgMax).
     *
     * @param logits Logits tensor [N, classes].
     * @return Node id of the scalar loss.
     */
    NodeId softmaxLoss(NodeId logits);

    /**
     * Shape of the tensor produced by @p id. Returned by value: a
     * reference into the graph would dangle once addNode() grows it.
     */
    TensorShape shapeOf(NodeId id) const;

    /** The loss node (valid after softmaxLoss). */
    NodeId lossNode() const { return loss_; }

    /** Access to the graph under construction. */
    Graph &graph() { return graph_; }

    /** Moves the finished graph out of the builder. */
    Graph finish();

  private:
    Graph graph_;
    std::int64_t batch_;
    NodeId labels_ = kInvalidNode;
    NodeId loss_ = kInvalidNode;
};

} // namespace graph
} // namespace ceer

#endif // CEER_GRAPH_BUILDER_H

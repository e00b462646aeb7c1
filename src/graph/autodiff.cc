#include "graph/autodiff.h"

#include <string_view>
#include <vector>

#include "util/logging.h"
#include "util/strings.h"

namespace ceer {
namespace graph {

bool
isDifferentiable(OpType type)
{
    switch (type) {
      case OpType::IteratorGetNext:
      case OpType::SparseToDense:
      case OpType::OneHot:
      case OpType::RandomUniform:
      case OpType::DecodeJpeg:
      case OpType::Range:
      case OpType::Assert:
      case OpType::GreaterEqual:
      case OpType::Select:
      case OpType::Cast:
      case OpType::ArgMax:
      case OpType::Shape:
      case OpType::ZerosLike:
      case OpType::Fill:
      case OpType::ApplyGradientDescent:
      case OpType::ApplyMomentum:
      case OpType::ApplyAdam:
        return false;
      default:
        return true;
    }
}

namespace {

/** "<scope><node><suffix>", e.g. "grad/conv1/Relu/ReluGrad", built in
 *  one buffer. */
std::string
scopedName(std::string_view scope, std::string_view node,
           std::string_view suffix)
{
    std::string out;
    out.reserve(scope.size() + node.size() + suffix.size());
    out.append(scope).append(node).append(suffix);
    return out;
}

/**
 * Shared state of one backward-pass construction.
 */
class BackwardBuilder
{
  public:
    BackwardBuilder(Graph &g, NodeId loss, Optimizer optimizer)
        : graph_(g), loss_(loss), optimizer_(optimizer),
          pending_(g.size())
    {
    }

    std::size_t
    run()
    {
        const std::size_t before = graph_.size();

        // Seed: d(loss)/d(loss) = 1, materialized as a Fill of ones.
        const NodeId seed =
            graph_.addNode("grad/ones", OpType::Fill, {}, {},
                           graph_.node(loss_).outputShape);
        pending_[static_cast<std::size_t>(loss_)].push_back(seed);

        for (NodeId id = loss_; id >= 0; --id) {
            auto &contribs = pending_[static_cast<std::size_t>(id)];
            if (contribs.empty())
                continue;
            // Copy: addNode below may reallocate the node vector.
            // Assigning into the member reuses its buffers.
            fwd_ = graph_.node(id);
            NodeId grad;
            if (contribs.size() == 1) {
                grad = contribs.front();
            } else {
                // Multiple consumers (e.g. residual shortcut): sum the
                // incoming gradients, as TF does with AddN.
                grad = graph_.addNode(
                    scopedName("grad/", fwd_.name, "/AddN"),
                    OpType::AddN, contribs, {}, fwd_.outputShape);
            }
            emitBackward(fwd_, grad);
        }
        return graph_.size() - before;
    }

  private:
    /** Records @p grad as a gradient contribution for input @p idx. */
    void
    propagate(const Node &fwd, std::size_t idx, NodeId grad)
    {
        const NodeId producer = fwd.inputs.at(idx);
        if (!isDifferentiable(graph_.node(producer).type))
            return;
        pending_[static_cast<std::size_t>(producer)].push_back(grad);
    }

    /** Appends an optimizer update consuming the parameter gradient. */
    void
    applyUpdate(const Node &fwd, NodeId param_grad,
                const TensorShape &var_shape, const char *suffix)
    {
        OpAttrs attrs;
        attrs.paramCount = var_shape.numElements();
        OpType update = OpType::ApplyGradientDescent;
        std::vector<TensorShape> slots;
        if (optimizer_ == Optimizer::Momentum) {
            update = OpType::ApplyMomentum;
            slots = {var_shape};
        } else if (optimizer_ == Optimizer::Adam) {
            update = OpType::ApplyAdam;
            slots = {var_shape, var_shape};
        }
        graph_.addNode(scopedName("train/", fwd.name, suffix), update,
                       {param_grad}, slots, var_shape, attrs);
    }

    void
    emitBackward(const Node &fwd, NodeId grad)
    {
        auto gradName = [&](std::string_view suffix) {
            return scopedName("grad/", fwd.name, suffix);
        };
        switch (fwd.type) {
          case OpType::Conv2D: {
            const NodeId filter_grad = graph_.addNode(
                gradName("/Conv2DBackpropFilter"),
                OpType::Conv2DBackpropFilter, {fwd.inputs[0], grad}, {},
                fwd.attrs.filterShape, fwd.attrs);
            applyUpdate(fwd, filter_grad, fwd.attrs.filterShape,
                        "/update");
            if (isDifferentiable(
                    graph_.node(fwd.inputs[0]).type)) {
                const NodeId input_grad = graph_.addNode(
                    gradName("/Conv2DBackpropInput"),
                    OpType::Conv2DBackpropInput, {grad},
                    {fwd.attrs.filterShape}, fwd.inputShapes[0],
                    fwd.attrs);
                propagate(fwd, 0, input_grad);
            }
            break;
          }
          case OpType::BatchMatMul: {
            // Both operands are activations: dA = dC B', dB = A' dC.
            for (std::size_t i = 0; i < fwd.inputs.size() && i < 2;
                 ++i) {
                if (!isDifferentiable(
                        graph_.node(fwd.inputs[i]).type)) {
                    continue;
                }
                const NodeId bmm_grad = graph_.addNode(
                    gradName(util::format("/BatchMatMul_grad%zu", i)),
                    OpType::BatchMatMul,
                    {grad, fwd.inputs[1 - i]}, {}, fwd.inputShapes[i],
                    fwd.attrs);
                propagate(fwd, i, bmm_grad);
            }
            break;
          }
          case OpType::LayerNorm: {
            const NodeId ln_grad = graph_.addNode(
                gradName("/LayerNormGrad"), OpType::LayerNormGrad,
                {grad, fwd.inputs[0]}, {fwd.attrs.filterShape},
                fwd.inputShapes[0], fwd.attrs);
            propagate(fwd, 0, ln_grad);
            applyUpdate(fwd, ln_grad, fwd.attrs.filterShape,
                        "/update_scale");
            applyUpdate(fwd, ln_grad, fwd.attrs.filterShape,
                        "/update_bias");
            break;
          }
          case OpType::Gelu: {
            const NodeId gelu_grad = graph_.addNode(
                gradName("/GeluGrad"), OpType::GeluGrad,
                {grad, fwd.inputs[0]}, {}, fwd.inputShapes[0]);
            propagate(fwd, 0, gelu_grad);
            break;
          }
          case OpType::Tanh:
          case OpType::Sigmoid: {
            // d tanh(x) = (1 - y^2) dy; d sigmoid = y(1-y) dy: one
            // elementwise Mul against the forward output either way.
            const NodeId tanh_grad = graph_.addNode(
                gradName("/Mul"), OpType::Mul, {grad, fwd.id}, {},
                fwd.inputShapes[0]);
            propagate(fwd, 0, tanh_grad);
            break;
          }
          case OpType::Gather: {
            // Embedding lookup: the gradient scatters into the table
            // variable; indices receive nothing.
            applyUpdate(fwd, grad, fwd.attrs.filterShape, "/update");
            break;
          }
          case OpType::DepthwiseConv2dNative: {
            const NodeId filter_grad = graph_.addNode(
                gradName("/DepthwiseConv2dNativeBackpropFilter"),
                OpType::DepthwiseConv2dNativeBackpropFilter,
                {fwd.inputs[0], grad}, {}, fwd.attrs.filterShape,
                fwd.attrs);
            applyUpdate(fwd, filter_grad, fwd.attrs.filterShape,
                        "/update");
            if (isDifferentiable(graph_.node(fwd.inputs[0]).type)) {
                const NodeId input_grad = graph_.addNode(
                    gradName("/DepthwiseConv2dNativeBackpropInput"),
                    OpType::DepthwiseConv2dNativeBackpropInput, {grad},
                    {fwd.attrs.filterShape}, fwd.inputShapes[0],
                    fwd.attrs);
                propagate(fwd, 0, input_grad);
            }
            break;
          }
          case OpType::FusedBatchNormV3: {
            const NodeId bn_grad = graph_.addNode(
                gradName("/FusedBatchNormGradV3"),
                OpType::FusedBatchNormGradV3, {grad, fwd.inputs[0]},
                {fwd.attrs.filterShape}, fwd.inputShapes[0], fwd.attrs);
            propagate(fwd, 0, bn_grad);
            applyUpdate(fwd, bn_grad, fwd.attrs.filterShape,
                        "/update_scale");
            applyUpdate(fwd, bn_grad, fwd.attrs.filterShape,
                        "/update_offset");
            break;
          }
          case OpType::BiasAdd: {
            const NodeId bias_grad = graph_.addNode(
                gradName("/BiasAddGrad"), OpType::BiasAddGrad, {grad}, {},
                fwd.attrs.filterShape);
            applyUpdate(fwd, bias_grad, fwd.attrs.filterShape, "/update");
            propagate(fwd, 0, grad);
            break;
          }
          case OpType::Relu: {
            const NodeId relu_grad = graph_.addNode(
                gradName("/ReluGrad"), OpType::ReluGrad, {grad, fwd.id},
                {}, fwd.inputShapes[0]);
            propagate(fwd, 0, relu_grad);
            break;
          }
          case OpType::MaxPool: {
            const NodeId pool_grad = graph_.addNode(
                gradName("/MaxPoolGrad"), OpType::MaxPoolGrad,
                {fwd.inputs[0], fwd.id, grad}, {}, fwd.inputShapes[0],
                fwd.attrs);
            propagate(fwd, 0, pool_grad);
            break;
          }
          case OpType::AvgPool: {
            const NodeId pool_grad = graph_.addNode(
                gradName("/AvgPoolGrad"), OpType::AvgPoolGrad, {grad}, {},
                fwd.inputShapes[0], fwd.attrs);
            propagate(fwd, 0, pool_grad);
            break;
          }
          case OpType::AddV2: {
            // The residual form has two node inputs; broadcast adds of
            // a variable (positional embeddings, bias tables) have one
            // node input plus an implicit table, which receives an
            // update instead.
            for (std::size_t i = 0; i < fwd.inputs.size(); ++i)
                propagate(fwd, i, grad);
            if (fwd.inputs.size() == 1 &&
                fwd.inputShapes.size() > 1 &&
                fwd.inputShapes[1].numElements() > 1) {
                applyUpdate(fwd, grad, fwd.inputShapes[1], "/update");
            }
            break;
          }
          case OpType::Mul: {
            // d(a*b)/da = grad * b. The scalar-scale variant has a
            // single node input; the dropout variant's mask input is
            // non-differentiable.
            for (std::size_t i = 0; i < fwd.inputs.size(); ++i) {
                if (!isDifferentiable(
                        graph_.node(fwd.inputs[i]).type)) {
                    continue;
                }
                std::vector<NodeId> ins{grad};
                if (fwd.inputs.size() > 1)
                    ins.push_back(fwd.inputs[1 - i]);
                const NodeId mul_grad = graph_.addNode(
                    gradName(util::format("/Mul_grad%zu", i)),
                    OpType::Mul, ins, {}, fwd.inputShapes[i]);
                propagate(fwd, i, mul_grad);
            }
            break;
          }
          case OpType::MatMul: {
            const NodeId input_grad = graph_.addNode(
                gradName("/MatMul_grad_input"), OpType::MatMul, {grad},
                {fwd.attrs.filterShape}, fwd.inputShapes[0], fwd.attrs);
            propagate(fwd, 0, input_grad);
            OpAttrs wattrs = fwd.attrs;
            const NodeId weight_grad = graph_.addNode(
                gradName("/MatMul_grad_weights"), OpType::MatMul,
                {fwd.inputs[0], grad}, {}, fwd.attrs.filterShape, wattrs);
            applyUpdate(fwd, weight_grad, fwd.attrs.filterShape,
                        "/update");
            break;
          }
          case OpType::ConcatV2: {
            for (std::size_t i = 0; i < fwd.inputs.size(); ++i) {
                const NodeId slice_grad = graph_.addNode(
                    gradName(util::format("/Slice_%zu", i)), OpType::Slice,
                    {grad}, {}, fwd.inputShapes[i]);
                propagate(fwd, i, slice_grad);
            }
            break;
          }
          case OpType::Reshape:
          case OpType::Squeeze:
          case OpType::ExpandDims: {
            const NodeId reshaped = graph_.addNode(
                gradName("/Reshape"), OpType::Reshape, {grad}, {},
                fwd.inputShapes[0]);
            propagate(fwd, 0, reshaped);
            break;
          }
          case OpType::Identity: {
            propagate(fwd, 0, grad);
            break;
          }
          case OpType::Pad: {
            const NodeId sliced = graph_.addNode(
                gradName("/Slice"), OpType::Slice, {grad}, {},
                fwd.inputShapes[0]);
            propagate(fwd, 0, sliced);
            break;
          }
          case OpType::Transpose: {
            const NodeId transposed = graph_.addNode(
                gradName("/Transpose"), OpType::Transpose, {grad}, {},
                fwd.inputShapes[0]);
            propagate(fwd, 0, transposed);
            break;
          }
          case OpType::Mean:
          case OpType::Sum: {
            const NodeId tiled = graph_.addNode(
                gradName("/Tile"), OpType::Tile, {grad}, {},
                fwd.inputShapes[0]);
            propagate(fwd, 0, tiled);
            break;
          }
          case OpType::Lrn: {
            const NodeId lrn_grad = graph_.addNode(
                gradName("/LRNGrad"), OpType::LrnGrad,
                {grad, fwd.inputs[0], fwd.id}, {}, fwd.inputShapes[0],
                fwd.attrs);
            propagate(fwd, 0, lrn_grad);
            break;
          }
          case OpType::SoftmaxCrossEntropyWithLogits: {
            // TF materializes the logits gradient from the op's second
            // output scaled by the incoming gradient (a Mul kernel).
            const NodeId logits_grad = graph_.addNode(
                gradName("/Mul"), OpType::Mul, {grad},
                {fwd.inputShapes[0]}, fwd.inputShapes[0]);
            propagate(fwd, 0, logits_grad);
            break;
          }
          default: {
            // Structural fallback: pass the gradient through, inserting
            // a Reshape when the shape changes.
            if (fwd.inputs.empty())
                break;
            NodeId out_grad = grad;
            if (!(fwd.inputShapes[0] == fwd.outputShape)) {
                out_grad = graph_.addNode(gradName("/Reshape"),
                                          OpType::Reshape, {grad}, {},
                                          fwd.inputShapes[0]);
            }
            propagate(fwd, 0, out_grad);
            break;
          }
        }
    }

    Graph &graph_;
    NodeId loss_;
    Optimizer optimizer_;
    std::vector<std::vector<NodeId>> pending_;
    Node fwd_; ///< Copy of the forward node being differentiated.
};

} // namespace

std::size_t
addBackwardPass(Graph &g, NodeId loss, const TrainingOptions &options)
{
    if (loss == kInvalidNode)
        util::panic("addBackwardPass: invalid loss node");
    if (g.node(loss).outputShape.rank() != 0)
        util::panic("addBackwardPass: loss must be a scalar");
    const auto before = static_cast<NodeId>(g.size());
    BackwardBuilder builder(g, loss, options.optimizer);
    const std::size_t added = builder.run();
    g.markGradientRange(before, static_cast<NodeId>(g.size()));
    return added;
}

std::size_t
addTrainingOps(Graph &g, NodeId loss, const TrainingOptions &options)
{
    const std::size_t before = g.size();
    addBackwardPass(g, loss, options);
    // Per-iteration bookkeeping: global-step increment and a host-side
    // sanity assert, both observed in TF training loops.
    const auto bookkeeping = static_cast<NodeId>(g.size());
    g.addNode("train/global_step/AddV2", OpType::AddV2, {},
              {TensorShape{}, TensorShape{}}, TensorShape{});
    g.addNode("train/assert_finite", OpType::Assert, {loss}, {},
              TensorShape{});
    g.markGradientRange(bookkeeping, static_cast<NodeId>(g.size()));
    return g.size() - before;
}

} // namespace graph
} // namespace ceer

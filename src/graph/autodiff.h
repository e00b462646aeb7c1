/**
 * @file
 * Backward-pass generation at operation granularity.
 *
 * Given a forward graph and its scalar loss, appends the gradient and
 * optimizer operations TensorFlow would add: Conv2DBackpropFilter /
 * Conv2DBackpropInput for convolutions, MaxPoolGrad/AvgPoolGrad,
 * ReluGrad, BiasAddGrad, FusedBatchNormGradV3, transposed MatMuls,
 * AddN where a tensor has multiple consumers (residual connections),
 * Slice for concat gradients, and one ApplyGradientDescent per trainable
 * variable.
 *
 * The generator tracks only shapes, not values — the simulator and Ceer
 * care about op types and input sizes, which this reproduces faithfully.
 */

#ifndef CEER_GRAPH_AUTODIFF_H
#define CEER_GRAPH_AUTODIFF_H

#include "graph/graph.h"

namespace ceer {
namespace graph {

/** Optimizer whose update ops the backward pass emits. */
enum class Optimizer
{
    Sgd,      ///< ApplyGradientDescent; no slot variables.
    Momentum, ///< ApplyMomentum; one slot per parameter.
    Adam,     ///< ApplyAdam; two slots per parameter.
};

/** Options for training-graph generation. */
struct TrainingOptions
{
    Optimizer optimizer = Optimizer::Sgd; ///< Update rule.
};

/**
 * True when gradients can flow through an op of type @p type.
 *
 * CPU pipeline ops, comparisons, casts (used only for masks here) and
 * random generators are treated as constant w.r.t. the loss.
 */
bool isDifferentiable(OpType type);

/**
 * Appends backward and optimizer nodes for the loss at @p loss.
 *
 * @param g    Graph containing the forward pass; extended in place.
 * @param loss Scalar loss node produced by GraphBuilder::softmaxLoss.
 * @return Number of nodes appended.
 */
std::size_t addBackwardPass(Graph &g, NodeId loss,
                            const TrainingOptions &options = {});

/**
 * Convenience wrapper: backward pass plus per-iteration bookkeeping ops
 * (global-step update, a host-side Assert).
 *
 * @param g    Graph with a forward pass.
 * @param loss Scalar loss node.
 * @return Number of nodes appended.
 */
std::size_t addTrainingOps(Graph &g, NodeId loss,
                           const TrainingOptions &options = {});

} // namespace graph
} // namespace ceer

#endif // CEER_GRAPH_AUTODIFF_H

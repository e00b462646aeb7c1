/**
 * @file
 * Dense network-structure feature vector (DNNAbacus-style).
 *
 * DNNAbacus (arXiv 2205.12095) predicts training cost by regressing on
 * a "network structural matrix" — per-architecture aggregates of layer
 * counts, parameter volume and tensor sizes — instead of per-operation
 * timings. This module extracts the repo's equivalent: a fixed-order
 * vector of op-category counts and param/FLOP/tensor-byte aggregates
 * computed from the training graph alone. FLOP counts come through a
 * caller-supplied callback (the hw layer depends on graph, not the
 * other way around); pass hw::opCost(node).flops.
 */

#ifndef CEER_GRAPH_NET_FEATURES_H
#define CEER_GRAPH_NET_FEATURES_H

#include <functional>
#include <vector>

#include "graph/graph.h"

namespace ceer {
namespace graph {

/** FLOP count of one node, e.g. hw::opCost(node).flops. */
using NodeFlopsFn = std::function<double(const Node &)>;

/**
 * Extracts the structure vector of @p g:
 *
 *   gpu_ops          GPU node count
 *   cpu_ops          CPU node count
 *   params_m         trainable parameters (millions)
 *   total_gflops     summed FLOPs of GPU nodes (GFLOP)
 *   max_op_gflops    largest single-op FLOP count (GFLOP)
 *   conv_gflops      FLOPs in Conv + ConvFilterGrad categories (GFLOP)
 *   matmul_gflops    FLOPs in the MatMulCat category (GFLOP)
 *   input_gb         summed input bytes of GPU nodes (GB)
 *   output_gb        summed output bytes of GPU nodes (GB)
 *   pool_ops         Pool + PoolGrad node count
 *   norm_ops         BatchNorm + Normalization node count
 *   elementwise_ops  Elementwise + Bias node count
 *   data_movement_gb input bytes of DataMovement nodes (GB)
 *
 * The slot order is part of the regression contract: models fitted
 * against one vector layout stay valid only while the layout holds.
 *
 * Pure function of the graph (and @p flops); identical graphs produce
 * bit-identical vectors. The unit scalings keep every slot within a
 * few orders of magnitude of 1 for typical zoo CNNs, which keeps the
 * downstream normal equations well-conditioned.
 */
std::vector<double> netFeatures(const Graph &g, const NodeFlopsFn &flops);

} // namespace graph
} // namespace ceer

#endif // CEER_GRAPH_NET_FEATURES_H

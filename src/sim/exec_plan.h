/**
 * @file
 * Structure-of-arrays execution plan for the training simulator.
 *
 * The simulator's hot loop evaluates every node of the training graph
 * once per replica per iteration. Walking the graph's array-of-structs
 * node list means a branch (GPU vs CPU placement) and a strided load
 * per node. The ExecPlan partitions the graph at construction into two
 * contiguous lanes — GPU ops (base time + lognormal sigma) and CPU ops
 * (gamma mean) — so the sampling kernel can run branch-free over dense
 * arrays, while a node -> slot map preserves the graph-order view
 * needed by the observer path (profiling, tracing).
 */

#ifndef CEER_SIM_EXEC_PLAN_H
#define CEER_SIM_EXEC_PLAN_H

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "hw/device_model.h"

namespace ceer {
namespace sim {

/**
 * Immutable SoA view of one training graph on one GPU model. It
 * depends on nothing else, so every data-parallel width k of a
 * (graph, GPU) pair can share one plan.
 */
struct ExecPlan
{
    /// GPU model the timings were derived for.
    hw::GpuModel gpu = hw::GpuModel::V100;

    /// Median GPU-op times in microseconds, in graph order (dense).
    std::vector<double> gpuBaseUs;
    /// Lognormal sigma per GPU op, parallel to gpuBaseUs.
    std::vector<double> gpuSigma;
    /// Mean CPU-op times in microseconds, in graph order (dense).
    std::vector<double> cpuMeanUs;

    /// Graph node index -> slot within its lane.
    std::vector<std::uint32_t> nodeSlot;
    /// Graph node index -> true when the node is in the GPU lane.
    std::vector<std::uint8_t> nodeOnGpu;

    /// Trainable parameter bytes (comm-model feature).
    double paramBytes = 0.0;
    /// Per-replica input batch bytes moved host->device per iteration.
    double inputBytes = 0.0;

    /** Total node count across both lanes. */
    std::size_t nodeCount() const { return nodeOnGpu.size(); }

    /**
     * Builds the plan for @p g on @p gpu: GPU-placed nodes use that
     * GPU's timing model, CPU-placed nodes its host's. The walk of
     * build(g, gpus) over one GPU.
     *
     * @param g   Training graph (not retained).
     * @param gpu GPU model.
     */
    static ExecPlan build(const graph::Graph &g, hw::GpuModel gpu);

    /**
     * Builds one plan per entry of @p gpus in a single walk over
     * @p g: each GPU-placed node's GPU-independent inputs
     * (hw::KernelWork) are read once and timed on every GPU, so plan i
     * equals build(g, gpus[i]) bit for bit and the graph can be
     * dropped as soon as this returns.
     */
    static std::vector<ExecPlan> build(const graph::Graph &g,
                                       std::span<const hw::GpuModel> gpus);
};

} // namespace sim
} // namespace ceer

#endif // CEER_SIM_EXEC_PLAN_H

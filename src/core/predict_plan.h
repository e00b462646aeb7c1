/**
 * @file
 * Compiled prediction plans: the one-time workload featurization half
 * of the predictor's compile -> evaluate split. The evaluate half is
 * CeerPredictor::terms (predictor.h), the library's one Eq. 2
 * evaluator.
 *
 * Eq. 2 is additive over graph operations, so a CNN's heavy-op term
 * on a given GPU is one fixed number: only the communication term
 * depends on the data-parallel width k. CeerPredictor::compile walks
 * the graph exactly once, classifying every node and extracting its
 * features, then evaluates every heavy op-type group on every GPU
 * right away and keeps only the numbers. A PredictPlan holds:
 *
 *  - the heavy groups' op types, in first-appearance order;
 *  - a groups x GPU-slot table of group sums, and their per-GPU
 *    total (the heavy term);
 *  - light / CPU op counts, the snapshotted medians, the cached
 *    parameter count and the batch the graph was built at.
 *
 * A group sum is one dense matrix-vector product over the group's
 * feature matrix (quadratically expanded when the fitted model is
 * quadratic) with the per-node max(., 1.0) clamp applied lane-wise
 * in a vectorized kernel, or rows * the flat fallback. The feature
 * matrices live only inside compile(), so CeerPredictor::terms(plan,
 * gpu, k) is a table lookup plus the communication term, and the
 * plan's size does not grow with the graph's node count.
 *
 * Determinism contract: evaluating a plan is bit-identical to a
 * per-node scalar reference built from the public model API
 * (OpTimeModel::predictUs per heavy node, summed per op-type group in
 * first-appearance order with nodes in graph order; flat groups as
 * count * fallback) for every graph, GPU and k — the kernel replays
 * LinearModel::predict's exact operation sequence per lane. The
 * reference lives in tests/predict_plan_test.cc
 * (PredictPlanTest.MatchesScalarWalkBitForBit) and is checked across
 * the whole model zoo.
 * Plans are immutable after compile(), so one plan may be evaluated
 * from many threads concurrently.
 */

#ifndef CEER_CORE_PREDICT_PLAN_H
#define CEER_CORE_PREDICT_PLAN_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/op_type.h"
#include "hw/gpu_spec.h"

namespace ceer {
namespace core {

class CeerPredictor;

/**
 * A graph compiled against one predictor's model. Obtain via
 * CeerPredictor::compile(); evaluate via terms / predictIterationUs /
 * predictTraining / predictBatch on the SAME predictor
 * (the plan holds the op models' results, but the communication
 * model is read from the live predictor at evaluation time).
 */
class PredictPlan
{
  public:
    PredictPlan(PredictPlan &&) = default;
    PredictPlan &operator=(PredictPlan &&) = default;

    /** Number of nodes in the compiled graph. */
    std::size_t nodeCount() const { return nodeCount_; }

    /** Heavy op-type groups (first-appearance order). */
    std::size_t groupCount() const { return groupOps_.size(); }

    /** Op type of heavy group @p i. */
    graph::OpType groupOp(std::size_t i) const;

    /**
     * Heavy-term contribution of group @p i on @p gpu: its nodes'
     * clamped regression estimates summed in graph order, or rows *
     * the flat fallback. heavyUs() is the sum of these in group
     * order. Computed at compile.
     */
    double groupHeavyUs(std::size_t i, hw::GpuModel gpu) const;

    /** Total heavy node instances across all groups. */
    std::size_t heavyCount() const { return heavyCount_; }

    /** Nodes classified light. */
    std::size_t lightCount() const { return lightCount_; }

    /** Nodes classified CPU. */
    std::size_t cpuCount() const { return cpuCount_; }

    /** Cached trainable-parameter count of the compiled graph. */
    double paramCount() const { return paramCount_; }

    /** Batch the compiled graph was built at (0 when it records none). */
    std::int64_t batchSize() const { return batchSize_; }

    /**
     * Heavy-term sum for @p gpu: the sum over all heavy nodes of their
     * clamped regression estimates, computed at compile.
     */
    double heavyUs(hw::GpuModel gpu) const;

    /** Light-term total: lightCount() * the snapshotted light median. */
    double lightUs() const;

    /** CPU-term total: cpuCount() * the snapshotted CPU median. */
    double cpuUs() const;

    /**
     * Approximate resident size in bytes (the plan object plus its
     * group and per-GPU tables). Used for cache accounting — an
     * estimate, not an exact heap measurement.
     */
    std::size_t approxBytes() const;

  private:
    friend class CeerPredictor;
    PredictPlan() = default;

    std::vector<graph::OpType> groupOps_;
    /** Row-major groups x GPU-slot table of group sums; a GPU's slot
     *  is static_cast<std::size_t>(hw::GpuModel). */
    std::vector<double> groupUs_;
    /** Per GPU slot: its groupUs_ column summed in group order. */
    std::vector<double> heavyUs_;
    std::size_t nodeCount_ = 0;
    std::size_t heavyCount_ = 0;
    std::size_t lightCount_ = 0;
    std::size_t cpuCount_ = 0;
    double lightMedianUs_ = 0.0;
    double cpuMedianUs_ = 0.0;
    double paramCount_ = 0.0;
    std::int64_t batchSize_ = 0;
};

namespace plan_kernel {

/**
 * The plan evaluation kernel: for each row i of the row-major
 * @p n x @p d matrix @p x, computes the clamped linear estimate
 *
 *   max(intercept + sum_j w[j] * (x[i*d + j] / s[j]), 1.0)
 *
 * and returns the left-to-right sum over rows. The per-lane operation
 * sequence is exactly LinearModel::predict followed by OpTimeModel's
 * clamp, and the translation unit is compiled with -ffp-contract=off,
 * so the result is bit-identical to a scalar per-node accumulation on
 * every clone the runtime dispatches to.
 */
double dotClampSum(const double *x, std::size_t n, std::size_t d,
                   const double *w, const double *s, double intercept);

} // namespace plan_kernel

} // namespace core
} // namespace ceer

#endif // CEER_CORE_PREDICT_PLAN_H

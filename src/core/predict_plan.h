/**
 * @file
 * Compiled prediction plans: the one-time workload featurization half
 * of the predictor's compile -> evaluate split, and the only Eq. 2
 * evaluator in the library.
 *
 * Eq. 2 is additive over graph operations, so nothing about a CNN's
 * contribution to a prediction depends on the candidate (GPU, k)
 * being scored. CeerPredictor::compile walks the graph exactly once —
 * classifying every node and extracting its features — and produces a
 * PredictPlan:
 *
 *  - per heavy op type, a dense row-major feature matrix (one row per
 *    node instance, profile::kNumOpFeatures columns) plus the
 *    quadratically-expanded matrix, materialized only when some
 *    (GPU, op) model actually selected the quadratic fit;
 *  - the evaluation recipe per GPU (scaled-space weights/scales/
 *    intercept snapshot, or the flat per-node fallback);
 *  - light / CPU op counts and the cached parameter count.
 *
 * predictIterationUs(plan, gpu, k) then reduces to one dense
 * matrix-vector product per heavy op type with the per-node
 * max(., 1.0) clamp applied lane-wise in a vectorized kernel — and a
 * per-(plan, GPU) memo caches that heavy sum, so scoring the same GPU
 * at another k recomputes only the communication-overhead term.
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
 * Plans are immutable after compile() apart from the memo, whose
 * lazy fill is thread-safe (double-checked atomics + mutex), so one
 * plan may be evaluated from many threads concurrently.
 */

#ifndef CEER_CORE_PREDICT_PLAN_H
#define CEER_CORE_PREDICT_PLAN_H

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/op_type.h"
#include "hw/gpu_spec.h"

namespace ceer {
namespace core {

class CeerPredictor;

/**
 * A graph compiled against one predictor's model. Obtain via
 * CeerPredictor::compile(); evaluate via predictIterationUs /
 * predictTraining / predictBatch / breakdown on the SAME predictor
 * (the plan snapshots the op models, but the communication model is
 * read from the live predictor at evaluation time).
 */
class PredictPlan
{
  public:
    PredictPlan(PredictPlan &&) = default;
    PredictPlan &operator=(PredictPlan &&) = default;

    /** Number of nodes in the compiled graph. */
    std::size_t nodeCount() const { return nodeCount_; }

    /** Heavy op-type groups (first-appearance order). */
    std::size_t groupCount() const { return groups_.size(); }

    /** Op type of heavy group @p i. */
    graph::OpType groupOp(std::size_t i) const;

    /**
     * Heavy-term contribution of group @p i on @p gpu: its nodes'
     * clamped regression estimates summed in graph order, or rows *
     * the flat fallback. heavyUs() is the sum of these in group
     * order. Not memoized.
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

    /**
     * Memoized heavy-term sum for @p gpu: the sum over all heavy nodes
     * of their clamped regression estimates, computed by the
     * vectorized kernel on first use and cached. Thread-safe.
     */
    double heavyUs(hw::GpuModel gpu) const;

    /** Light-term total: lightCount() * the snapshotted light median. */
    double lightUs() const;

    /** CPU-term total: cpuCount() * the snapshotted CPU median. */
    double cpuUs() const;

    /**
     * Approximate resident size in bytes (feature matrices, recipes,
     * memo). Used for cache accounting — an estimate, not an exact
     * heap measurement.
     */
    std::size_t approxBytes() const;

  private:
    friend class CeerPredictor;
    PredictPlan() = default;

    /** How one heavy op-type group is evaluated on one GPU. */
    struct GpuRecipe
    {
        /** True: dense matvec over the group's matrix. False: every
         *  node contributes flatUs (unusable-model clamped median, or
         *  the light-median fallback for never-profiled ops). */
        bool viaModel = false;
        bool quadratic = false;       ///< Use the expanded matrix.
        std::vector<double> weights;  ///< Scaled-space weights.
        std::vector<double> scales;   ///< Per-feature divisors.
        double intercept = 0.0;
        double flatUs = 0.0;
    };

    /** All instances of one heavy op type, in graph order. */
    struct OpGroup
    {
        graph::OpType op = graph::OpType::Identity;
        std::size_t rows = 0;
        /** Row-major rows x kNumOpFeatures raw feature matrix. */
        std::vector<double> features;
        /** Row-major rows x 2*kNumOpFeatures quadratic expansion;
         *  empty unless some GPU's fitted model is quadratic. */
        std::vector<double> quadFeatures;
        /** Indexed by static_cast<std::size_t>(hw::GpuModel). */
        std::vector<GpuRecipe> recipes;
    };

    /** Lazily-filled per-GPU heavy-sum cache. Lives behind a
     *  unique_ptr so the plan stays movable. */
    struct Memo
    {
        std::mutex mutex;
        std::vector<std::atomic<bool>> ready;
        std::vector<double> value;
    };

    std::vector<OpGroup> groups_;
    std::size_t nodeCount_ = 0;
    std::size_t heavyCount_ = 0;
    std::size_t lightCount_ = 0;
    std::size_t cpuCount_ = 0;
    double lightMedianUs_ = 0.0;
    double cpuMedianUs_ = 0.0;
    double paramCount_ = 0.0;
    std::unique_ptr<Memo> memo_;
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

/**
 * @file
 * Optimal cloud-instance recommendation (paper Sec. IV-D and the
 * Sec. V scenarios): evaluate every candidate instance with the
 * trained predictor and minimize a user objective under optional
 * budget constraints.
 */

#ifndef CEER_CORE_RECOMMENDER_H
#define CEER_CORE_RECOMMENDER_H

#include <array>
#include <cstddef>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "cloud/instances.h"
#include "core/predictor.h"

namespace ceer {
namespace core {

/** What the user wants to minimize. */
enum class Objective
{
    MinTrainingTime, ///< Fastest feasible instance.
    MinCost,         ///< Cheapest feasible instance.
};

/**
 * User-specified objective Obj(T, C) (paper Sec. IV-D): maps predicted
 * training hours and total cost to a score; the recommender minimizes
 * it. Allows blends like T * C or alpha*T + beta*C.
 */
using ObjectiveFn = std::function<double(double hours, double cost_usd)>;

/** The ObjectiveFn equivalent of a built-in Objective. */
ObjectiveFn objectiveFunction(Objective objective);

/** The workload to be placed. */
struct WorkloadSpec
{
    /// Training graph (batch B). recommendInto() reads it only to
    /// compute memory fits, so it may be null when a fits table is
    /// passed.
    const graph::Graph *graph = nullptr;
    std::int64_t datasetSamples = 0;     ///< Dataset size D.
    std::int64_t batchPerGpu = 32;       ///< Per-GPU batch B.
};

/** Constraints of a scenario. */
struct Constraints
{
    /** Maximum hourly rental price (infinity = unconstrained). */
    double hourlyBudgetUsd = std::numeric_limits<double>::infinity();

    /** Tolerated hourly-budget violation (the paper allows $0.42). */
    double hourlyToleranceUsd = 0.0;

    /** Maximum total training spend (infinity = unconstrained). */
    double totalBudgetUsd = std::numeric_limits<double>::infinity();

    /**
     * Reject instances whose GPU memory cannot hold the training
     * footprint (params + gradients + optimizer + activations).
     */
    bool enforceGpuMemory = true;
};

/** Prediction for one candidate instance. */
struct CandidateEvaluation
{
    cloud::GpuInstance instance;  ///< The candidate.
    TrainingPrediction prediction; ///< Ceer's time prediction.
    double costUsd = 0.0;          ///< Predicted total cost.
    bool withinHourly = true;      ///< Meets the hourly budget.
    bool withinTotal = true;       ///< Meets the total budget.
    bool fitsMemory = true;        ///< Fits in the GPU's memory.

    /** Feasible under every constraint. */
    bool
    feasible() const
    {
        return withinHourly && withinTotal && fitsMemory;
    }
};

/**
 * Per-GPU-model memory-fit verdicts, indexed by the hw::GpuModel
 * enum value. A pure function of the graph (the per-GPU batch and
 * replica footprint are identical at any instance size), so
 * long-lived callers compute it once per graph — the full-graph
 * memory walk is the recommender's only O(nodes) step once a plan's
 * heavy term is memoized, and recomputing it per query dominated
 * ceerd's request cost on deep models.
 */
using MemoryFitTable = std::array<bool, 16>;

/** Fills a MemoryFitTable for @p g: one hw::estimateTrainingMemory,
 *  then hw::fitsInGpuMemory against each GPU model's budget. */
MemoryFitTable computeMemoryFits(const graph::Graph &g);

/** Result of a recommendation query. */
struct Recommendation
{
    std::vector<CandidateEvaluation> evaluations; ///< All candidates.
    int bestIndex = -1; ///< Index of the winner, -1 if none feasible.

    /** The winning evaluation; panics when bestIndex < 0. */
    const CandidateEvaluation &best() const;
};

/**
 * Candidate count at which an automatic (threads = 0) sweep forks onto
 * the shared pool; smaller sweeps run serially on the caller.
 * Single-connection ceerd p50 of `gen-catalog` fleets on a 4-vCPU
 * host, serial -> parallel sweep (three 3-s runs each): 256 instances
 * 47-67 -> 64-78 us, 512 98-106 -> 97-104 us, 1024 131-180 -> 135-150
 * us, 1536 256-280 -> 167-205 us, 2048 260-365 -> 233-263 us. 1024 is
 * where the fork-join stops losing. The 16-instance AWS catalog stays
 * far below, keeping its allocation-free sweep.
 */
constexpr std::size_t kParallelSweepMinCandidates = 1024;

/**
 * Evaluates every candidate and picks the best feasible one.
 *
 * The workload graph is compiled once (CeerPredictor::compile) and
 * every candidate is scored against the shared plan. With
 * @p threads != 1 the candidate evaluations may fan out across
 * util::ThreadPool::shared(); the winner is still selected by a serial
 * candidate-order reduction, so the Recommendation — winner and the
 * full Evaluation list — is byte-identical at any thread count.
 *
 * @param predictor   Trained Ceer predictor.
 * @param workload    CNN + dataset to train.
 * @param candidates  Candidate instances (e.g. a whole catalog).
 * @param objective   Metric to minimize.
 * @param constraints Budget constraints.
 * @param threads     Sweep parallelism: 1 = serial (default), n > 1 =
 *                    exactly n, 0 = automatic: serial below
 *                    kParallelSweepMinCandidates candidates, one per
 *                    hardware thread at or above it.
 */
Recommendation recommend(const CeerPredictor &predictor,
                         const WorkloadSpec &workload,
                         const std::vector<cloud::GpuInstance> &candidates,
                         Objective objective,
                         const Constraints &constraints = {},
                         int threads = 1);

/**
 * Overload minimizing an arbitrary Obj(T, C).
 *
 * @param objective Score to minimize over feasible candidates.
 */
Recommendation recommend(const CeerPredictor &predictor,
                         const WorkloadSpec &workload,
                         const std::vector<cloud::GpuInstance> &candidates,
                         const ObjectiveFn &objective,
                         const Constraints &constraints = {},
                         int threads = 1);

/**
 * Overload reusing a precompiled plan for the workload graph.
 *
 * @p plan must have been produced by @p predictor's compile() for
 * @p workload.graph. Long-lived callers (the ceerd server's per-session
 * plan caches) compile once per graph and sweep many queries against
 * the shared plan; the result is byte-identical to the compiling
 * overloads above, which delegate here.
 */
Recommendation recommend(const CeerPredictor &predictor,
                         const PredictPlan &plan,
                         const WorkloadSpec &workload,
                         const std::vector<cloud::GpuInstance> &candidates,
                         const ObjectiveFn &objective,
                         const Constraints &constraints = {},
                         int threads = 1);

/**
 * Out-parameter variant of the precompiled-plan overload: writes the
 * result into @p out, reusing its evaluations storage (slots are fully
 * overwritten every call). Sweeping the same catalog into a warm
 * Recommendation is allocation-free — the ceerd request path depends
 * on this. Byte-identical to the returning overload, which delegates
 * here.
 *
 * @param fits Precomputed computeMemoryFits(*workload.graph), or null
 *             to compute it in place. Passing a cached table skips the
 *             per-query full-graph memory walk; the result is
 *             byte-identical either way. With a table, workload.graph
 *             may be null: the batch check reads @p plan.
 */
void recommendInto(const CeerPredictor &predictor,
                   const PredictPlan &plan, const WorkloadSpec &workload,
                   const std::vector<cloud::GpuInstance> &candidates,
                   const ObjectiveFn &objective,
                   const Constraints &constraints, int threads,
                   Recommendation *out,
                   const MemoryFitTable *fits = nullptr);

} // namespace core
} // namespace ceer

#endif // CEER_CORE_RECOMMENDER_H

#include "core/recommender.h"

#include <array>

#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "util/strings.h"

#include "hw/memory.h"

#include "util/logging.h"
#include "util/thread_pool.h"

namespace ceer {
namespace core {

const CandidateEvaluation &
Recommendation::best() const
{
    if (bestIndex < 0 ||
        static_cast<std::size_t>(bestIndex) >= evaluations.size())
        util::panic("Recommendation::best: no feasible candidate");
    return evaluations[static_cast<std::size_t>(bestIndex)];
}

ObjectiveFn
objectiveFunction(Objective objective)
{
    if (objective == Objective::MinTrainingTime)
        return [](double hours, double) { return hours; };
    return [](double, double cost_usd) { return cost_usd; };
}

Recommendation
recommend(const CeerPredictor &predictor, const WorkloadSpec &workload,
          const std::vector<cloud::GpuInstance> &candidates,
          Objective objective, const Constraints &constraints,
          int threads)
{
    return recommend(predictor, workload, candidates,
                     objectiveFunction(objective), constraints,
                     threads);
}

Recommendation
recommend(const CeerPredictor &predictor, const WorkloadSpec &workload,
          const std::vector<cloud::GpuInstance> &candidates,
          const ObjectiveFn &objective, const Constraints &constraints,
          int threads)
{
    if (!workload.graph)
        util::panic("recommend: workload has no graph");
    // Compile the workload once; every candidate scores against the
    // shared plan (immutable after compile, so the sweep can fan out).
    const PredictPlan plan = predictor.compile(*workload.graph);
    return recommend(predictor, plan, workload, candidates, objective,
                     constraints, threads);
}

Recommendation
recommend(const CeerPredictor &predictor, const PredictPlan &plan,
          const WorkloadSpec &workload,
          const std::vector<cloud::GpuInstance> &candidates,
          const ObjectiveFn &objective, const Constraints &constraints,
          int threads)
{
    Recommendation result;
    recommendInto(predictor, plan, workload, candidates, objective,
                  constraints, threads, &result);
    return result;
}

MemoryFitTable
computeMemoryFits(const graph::Graph &g)
{
    MemoryFitTable fits{};
    const hw::MemoryEstimate estimate = hw::estimateTrainingMemory(g);
    for (hw::GpuModel gpu : hw::allGpuModels()) {
        const std::size_t slot = static_cast<std::size_t>(gpu);
        if (slot >= fits.size())
            util::panic("recommend: GpuModel beyond fits table");
        fits[slot] = hw::fitsInGpuMemory(estimate, gpu);
    }
    return fits;
}

void
recommendInto(const CeerPredictor &predictor, const PredictPlan &plan,
              const WorkloadSpec &workload,
              const std::vector<cloud::GpuInstance> &candidates,
              const ObjectiveFn &objective,
              const Constraints &constraints, int threads,
              Recommendation *out, const MemoryFitTable *fits)
{
    // The graph is read only for the memory-fit table; a caller that
    // passes the table may have dropped the graph after compiling.
    if (!workload.graph && !fits)
        util::panic("recommend: workload has no graph");
    if (!objective)
        util::panic("recommend: empty objective function");
    if (plan.batchSize() > 0 && plan.batchSize() != workload.batchPerGpu) {
        util::panic(util::format(
            "recommend: graph was built at batch %lld but the "
            "workload declares batch %lld — per-op input sizes would "
            "not match the iteration count",
            static_cast<long long>(plan.batchSize()),
            static_cast<long long>(workload.batchPerGpu)));
    }

    // Memory depends only on the GPU model (the per-GPU batch and the
    // replica footprint are the same for any k); compute it once per
    // silicon — or take the caller's cached table, since the verdicts
    // are a pure function of the graph and the underlying estimate
    // walks every node. A fixed-size table indexed by the GpuModel
    // enum keeps this off the heap (recommendInto must not allocate
    // on a warm Recommendation).
    MemoryFitTable local{};
    if (constraints.enforceGpuMemory && !fits) {
        local = computeMemoryFits(*workload.graph);
        fits = &local;
    }

    // Each task writes only its own evaluation slot and every value is
    // a pure function of (plan, candidate), so the evaluation list is
    // byte-identical at any thread count. Every slot field is assigned
    // unconditionally — reused slots must not leak a previous sweep's
    // values.
    OBS_SPAN("recommender.sweep", "recommender");
    OBS_TIMER("recommender.sweep_us");
    OBS_COUNTER_ADD("recommender.candidates", candidates.size());

    Recommendation &result = *out;
    result.bestIndex = -1;
    result.evaluations.resize(candidates.size());
    const auto evaluate = [&](std::size_t i) {
        const cloud::GpuInstance &instance = candidates[i];
        CandidateEvaluation &evaluation = result.evaluations[i];
        evaluation.instance = instance;
        evaluation.fitsMemory =
            !constraints.enforceGpuMemory ||
            (*fits)[static_cast<std::size_t>(instance.gpu)];
        evaluation.prediction = predictor.predictTraining(
            plan, instance.gpu, instance.numGpus, workload.datasetSamples,
            workload.batchPerGpu);
        evaluation.costUsd =
            evaluation.prediction.costUsd(instance.hourlyUsd);
        evaluation.withinHourly =
            instance.hourlyUsd <= constraints.hourlyBudgetUsd +
                                      constraints.hourlyToleranceUsd;
        evaluation.withinTotal =
            evaluation.costUsd <= constraints.totalBudgetUsd;
    };

    // One candidate scores in well under a microsecond, since the
    // plan holds its heavy term, so per-candidate chunks would drown in
    // scheduling overhead. The measured-first-chunk grain controller
    // coarsens the sweep into contiguous blocks (minGrain keeps the
    // probe itself above timer noise), and the shared pool's parked
    // workers keep the fan-out cost of this sub-millisecond section to
    // one wake. threads == 0 forks only at the break-even size.
    util::ParallelOptions parallel;
    parallel.minGrain = 8;
    parallel.maxThreads =
        threads == 0 && candidates.size() < kParallelSweepMinCandidates
            ? 1
            : util::ThreadPool::effectiveThreads(threads);
    util::ThreadPool::shared().parallelForRange(
        candidates.size(), parallel, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                evaluate(i);
        });

    for (std::size_t i = 0; i < result.evaluations.size(); ++i) {
        const CandidateEvaluation &candidate = result.evaluations[i];
        if (!candidate.feasible())
            continue;
        if (result.bestIndex < 0) {
            result.bestIndex = static_cast<int>(i);
            continue;
        }
        const CandidateEvaluation &incumbent =
            result.evaluations[static_cast<std::size_t>(
                result.bestIndex)];
        const double candidate_score = objective(
            candidate.prediction.hours, candidate.costUsd);
        const double incumbent_score = objective(
            incumbent.prediction.hours, incumbent.costUsd);
        if (candidate_score < incumbent_score)
            result.bestIndex = static_cast<int>(i);
    }

    // Winner margin (runner-up score minus winner score among the
    // feasible candidates): a read-only pass taken only while
    // observability is on, so the sweep itself is untouched.
    if (obs::enabled() && result.bestIndex >= 0) {
        const CandidateEvaluation &best = result.best();
        const double best_score =
            objective(best.prediction.hours, best.costUsd);
        double runner_up = 0.0;
        bool have_runner_up = false;
        for (std::size_t i = 0; i < result.evaluations.size(); ++i) {
            if (static_cast<int>(i) == result.bestIndex)
                continue;
            const CandidateEvaluation &candidate =
                result.evaluations[i];
            if (!candidate.feasible())
                continue;
            const double score = objective(
                candidate.prediction.hours, candidate.costUsd);
            if (!have_runner_up || score < runner_up) {
                runner_up = score;
                have_runner_up = true;
            }
        }
        if (have_runner_up)
            OBS_GAUGE_SET("recommender.winner_margin",
                          runner_up - best_score);
    }
}

} // namespace core
} // namespace ceer

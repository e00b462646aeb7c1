/**
 * @file
 * Common interface over every per-iteration time predictor the repo
 * can compare (ROADMAP: "baseline predictor suite from the related
 * work").
 *
 * Registered engines, in registry order:
 *
 *   ceer             the full paper model (regression + medians + comm)
 *   ceer_heavy_only  Ceer without the light/CPU median terms (Sec. IV-B)
 *   ceer_no_comm     Ceer without S_GPU (Sec. IV-A)
 *   paleo_flops      PALEO-style FLOPs / (peak * utilization)
 *   profet           PROFET-style (arXiv 2208.05130): per-op-type
 *                    regressions fitted on ONE reference GPU's
 *                    profiles, transferred to the other instances via
 *                    per-(GPU, op type) scaling factors
 *   dnnabacus        DNNAbacus-style (arXiv 2205.12095): per-GPU
 *                    linear regression of run-level compute time on
 *                    the dense graph::netFeatures() structure vector,
 *                    plus a non-negative comm slope in (k-1) * params
 *
 * Contract every implementation honors (tests/property_test.cc):
 *  - an engine is trained when the factory returns it and immutable
 *    after that: predictGrid is a pure const function, deterministic,
 *    thread-safe, finite and non-negative on the whole model zoo, and
 *    monotone non-decreasing in k;
 *  - it keeps no per-graph state, so any graph (a temporary included)
 *    may be predicted in any order;
 *  - building from a dataset missing what the engine needs is a fatal
 *    error naming the engine, never UB.
 */

#ifndef CEER_BASELINES_PREDICTOR_H
#define CEER_BASELINES_PREDICTOR_H

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "hw/gpu_spec.h"
#include "profile/profiler.h"

namespace ceer {
namespace baselines {

/** One trained per-iteration training-time prediction engine. */
class Predictor
{
  public:
    virtual ~Predictor() = default;

    /** Registry name, e.g. "ceer" or "profet". */
    virtual const std::string &name() const = 0;

    /**
     * Predicted per-iteration training time in microseconds of @p g
     * on every (GPU, k) pair of the grid: out[gi * ks.size() + ki] is
     * the time on gpus[gi] at data-parallel width ks[ki]. Thread-safe
     * and deterministic; panics unless out.size() is
     * gpus.size() * ks.size().
     *
     * @param g    Training graph at the per-GPU batch size.
     * @param gpus GPU models of the grid.
     * @param ks   Data-parallel widths of the grid (each >= 1).
     * @param out  One slot per (GPU, k) cell, GPU-major.
     */
    void predictGrid(const graph::Graph &g,
                     std::span<const hw::GpuModel> gpus,
                     std::span<const int> ks,
                     std::span<double> out) const;

  private:
    /** predictGrid after the size check. */
    virtual void fillGrid(const graph::Graph &g,
                          std::span<const hw::GpuModel> gpus,
                          std::span<const int> ks,
                          std::span<double> out) const = 0;
};

/** Registry names, in canonical report order. */
const std::vector<std::string> &allPredictorNames();

/**
 * Builds the engines named in @p names, trained on @p dataset
 * (registry order is NOT imposed — the report shows predictors in the
 * order requested). An empty list means all engines, in registry
 * order. Ceer is trained at most once per call, and only when a
 * ceer* engine is requested; its variants share that one model.
 * Fatal on an unknown name before any training.
 */
std::vector<std::unique_ptr<Predictor>>
makePredictors(const std::vector<std::string> &names,
               const profile::ProfileDataset &dataset);

} // namespace baselines
} // namespace ceer

#endif // CEER_BASELINES_PREDICTOR_H

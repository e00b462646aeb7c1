/**
 * @file
 * Baselines the paper compares Ceer against.
 *
 * Instance-selection strategies (Sec. V):
 *  - "cheapest": rent the instance with the lowest hourly price;
 *  - "latest generation": rent the newest-GPU (P3) instance, as AWS
 *    lists by default — the largest one that fits the constraint.
 *
 * Predictor ablations/comparators (Secs. IV, VII):
 *  - heavy-only: Ceer without the light/CPU median terms (Giannini
 *    et al.-style layer modeling that ignores small ops);
 *  - no-comm: Ceer without S_GPU (Cai et al. / Justus et al., which
 *    ignore communication);
 *  - PALEO-style: per-iteration time from the FLOP count alone at a
 *    fixed utilization, no input-size or communication modeling.
 */

#ifndef CEER_BASELINES_BASELINES_H
#define CEER_BASELINES_BASELINES_H

#include <limits>

#include "cloud/instances.h"
#include "core/predictor.h"

namespace ceer {
namespace baselines {

/** The lowest-hourly-price candidate; fatals on an empty list. */
const cloud::GpuInstance &
cheapestInstance(const std::vector<cloud::GpuInstance> &candidates);

/**
 * The largest latest-generation (P3/V100) candidate whose hourly price
 * is within @p hourly_budget; falls back to the largest P3 when the
 * budget is infinite. Fatals when no P3 candidate fits.
 */
const cloud::GpuInstance &latestGenerationInstance(
    const std::vector<cloud::GpuInstance> &candidates,
    double hourly_budget = std::numeric_limits<double>::infinity());

/**
 * Ceer ablation without the light/CPU median terms (Sec. IV-B, 15-25%
 * err): heavy + comm.
 */
double heavyOnlyUs(const core::IterationTerms &terms);

/**
 * Ceer ablation without the communication overhead (Sec. IV-A, 5-30%
 * err): (heavy + light) + cpu.
 */
double noCommUs(const core::IterationTerms &terms);

/**
 * PALEO-style FLOP-count predictor: iteration time is the summed FLOPs
 * of GPU ops divided by peak throughput at a fixed utilization. Knows
 * nothing about memory-bound ops, input sizes, light/CPU ops or
 * communication.
 */
class FlopsPredictor
{
  public:
    /** @param utilization Fraction of peak FLOP/s assumed achieved. */
    explicit FlopsPredictor(double utilization = 0.5);

    /** Predicted per-iteration time on @p gpu. */
    double predictIterationUs(const graph::Graph &g,
                              hw::GpuModel gpu) const;

  private:
    double utilization_;
};

} // namespace baselines
} // namespace ceer

#endif // CEER_BASELINES_BASELINES_H

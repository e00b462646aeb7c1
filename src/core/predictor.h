/**
 * @file
 * Training time and cost prediction (paper Eqs. 1-3).
 *
 * Per-iteration time is the sum over all graph operations of their
 * estimated compute times — regression for heavy ops, medians for
 * light/CPU ops — plus the communication overhead S_GPU(k, params).
 * Total time scales by the iteration count D / (k * B); cost is time
 * multiplied by the instance's hourly price. Every prediction goes
 * through a PredictPlan compiled from the graph (predict_plan.h).
 */

#ifndef CEER_CORE_PREDICTOR_H
#define CEER_CORE_PREDICTOR_H

#include "core/ceer_model.h"
#include "core/predict_plan.h"
#include "graph/graph.h"

namespace ceer {
namespace core {

/**
 * The four terms of a per-iteration prediction (Eq. 2). Every total
 * the library reports is a sum over one of these, so a total and its
 * ablations are bit-consistent by construction.
 */
struct IterationTerms
{
    double heavyUs = 0.0; ///< Sum of heavy-op regression estimates.
    double lightUs = 0.0; ///< n_l * light median.
    double cpuUs = 0.0;   ///< n_c * CPU median.
    double commUs = 0.0;  ///< S_GPU(k, params).

    /** Full per-iteration prediction: ((heavy + light) + cpu) + comm. */
    double
    totalUs() const
    {
        return heavyUs + lightUs + cpuUs + commUs;
    }
};

/** A full training-run prediction. */
struct TrainingPrediction
{
    std::int64_t iterations = 0; ///< D / (k * B).
    double iterationUs = 0.0;    ///< Predicted per-iteration time.
    double hours = 0.0;          ///< Predicted total training time.

    /** Cost at @p hourly_usd dollars per hour. */
    double
    costUsd(double hourly_usd) const
    {
        return hours * hourly_usd;
    }
};

/**
 * Scales a per-iteration prediction into a full TrainingPrediction:
 * iterations = ceil(D / (k * B)), hours = iterations * iterationUs /
 * 3.6e9. Shared by CeerPredictor and the evaluation harness (which
 * scores every baseline engine) so every engine's hour/cost
 * arithmetic is identical by construction. Panics when D or B is
 * non-positive.
 */
TrainingPrediction makeTrainingPrediction(double iteration_us,
                                          int num_gpus,
                                          std::int64_t dataset_samples,
                                          std::int64_t batch_per_gpu);

/** One (GPU, k) candidate of a predictBatch call. */
struct PredictRequest
{
    hw::GpuModel gpu = hw::GpuModel::V100; ///< GPU model.
    int numGpus = 1;                       ///< Data-parallel width k.
};

/**
 * Applies a trained CeerModel to unseen CNNs: compile() a graph once,
 * then evaluate the plan for any (GPU, k). Heavy ops with no trained
 * model on a GPU fall back to the light median (the paper's rule for
 * unseen operations, Sec. IV-D); heavy ops whose fit was unusable
 * contribute their clamped median.
 */
class CeerPredictor
{
  public:
    /** @param model Trained model; copied into the predictor. */
    explicit CeerPredictor(CeerModel model);

    /** The underlying model. */
    const CeerModel &model() const { return model_; }

    /**
     * Compiles @p g against this predictor's model: one graph walk
     * builds dense per-op-type feature matrices, which are evaluated
     * on every GPU right away; the PredictPlan keeps only the per-GPU
     * heavy sums and cached counts, so the members below add just the
     * communication term. See predict_plan.h for the determinism
     * contract. The plan is only meaningful with the predictor that
     * compiled it.
     */
    PredictPlan compile(const graph::Graph &g) const;

    /**
     * The Eq. 2 terms of one per-iteration prediction: the heavy term
     * is read from the plan, the light and CPU terms are the plan's
     * count * median products, and only the communication term is
     * computed here. Allocates nothing.
     *
     * @param plan     Training graph (per-GPU batch) compiled here.
     * @param gpu      GPU model.
     * @param num_gpus Data-parallel width k.
     */
    IterationTerms terms(const PredictPlan &plan, hw::GpuModel gpu,
                         int num_gpus) const;

    /** Predicted per-iteration training time: terms(...).totalUs(). */
    double predictIterationUs(const PredictPlan &plan, hw::GpuModel gpu,
                              int num_gpus) const;

    /**
     * Predicted full-training time (Eq. 2 scaled by D / (k * B)).
     *
     * @param plan            Training graph compiled here.
     * @param gpu             GPU model.
     * @param num_gpus        Data-parallel width.
     * @param dataset_samples Dataset size D.
     * @param batch_per_gpu   Per-GPU batch B.
     */
    TrainingPrediction
    predictTraining(const PredictPlan &plan, hw::GpuModel gpu,
                    int num_gpus, std::int64_t dataset_samples,
                    std::int64_t batch_per_gpu) const;

    /**
     * Evaluates every (GPU, k) candidate against one compiled plan.
     * Element i is predictIterationUs(plan, requests[i], ...); across
     * requests only the communication term is computed (the plan
     * holds each GPU's heavy term).
     */
    std::vector<double>
    predictBatch(const PredictPlan &plan,
                 const std::vector<PredictRequest> &requests) const;

  private:
    CeerModel model_;
};

} // namespace core
} // namespace ceer

#endif // CEER_CORE_PREDICTOR_H

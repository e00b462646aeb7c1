#include "core/predictor.h"

#include "obs/metrics.h"
#include "util/logging.h"

namespace ceer {
namespace core {

using hw::GpuModel;

CeerPredictor::CeerPredictor(CeerModel model) : model_(std::move(model))
{
}

IterationTerms
CeerPredictor::terms(const PredictPlan &plan, GpuModel gpu,
                     int num_gpus) const
{
    IterationTerms terms;
    terms.heavyUs = plan.heavyUs(gpu);
    terms.lightUs = plan.lightUs();
    terms.cpuUs = plan.cpuUs();
    terms.commUs =
        model_.comm.overheadUs(gpu, num_gpus, plan.paramCount());
    return terms;
}

double
CeerPredictor::predictIterationUs(const PredictPlan &plan, GpuModel gpu,
                                  int num_gpus) const
{
    return terms(plan, gpu, num_gpus).totalUs();
}

TrainingPrediction
makeTrainingPrediction(double iteration_us, int num_gpus,
                       std::int64_t dataset_samples,
                       std::int64_t batch_per_gpu)
{
    if (dataset_samples <= 0 || batch_per_gpu <= 0)
        util::panic("predictTraining: dataset and batch must be > 0");
    TrainingPrediction prediction;
    const std::int64_t per_iteration =
        batch_per_gpu * static_cast<std::int64_t>(num_gpus);
    prediction.iterations =
        (dataset_samples + per_iteration - 1) / per_iteration;
    prediction.iterationUs = iteration_us;
    prediction.hours = prediction.iterationUs *
                       static_cast<double>(prediction.iterations) /
                       3.6e9;
    return prediction;
}

TrainingPrediction
CeerPredictor::predictTraining(const PredictPlan &plan, GpuModel gpu,
                               int num_gpus,
                               std::int64_t dataset_samples,
                               std::int64_t batch_per_gpu) const
{
    return makeTrainingPrediction(predictIterationUs(plan, gpu, num_gpus),
                                  num_gpus, dataset_samples,
                                  batch_per_gpu);
}

std::vector<double>
CeerPredictor::predictBatch(const PredictPlan &plan,
                            const std::vector<PredictRequest> &requests) const
{
    // Batch sizes land in power-of-two buckets (1..4096, then
    // overflow) rather than the default latency ladder.
    if (obs::enabled()) {
        static obs::Histogram &sizes = obs::histogram(
            "predictor.batch_size",
            {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096});
        sizes.record(static_cast<double>(requests.size()));
    }
    std::vector<double> out;
    out.reserve(requests.size());
    for (const PredictRequest &request : requests) {
        out.push_back(
            predictIterationUs(plan, request.gpu, request.numGpus));
    }
    return out;
}

} // namespace core
} // namespace ceer

#include "core/predictor.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/logging.h"

namespace ceer {
namespace core {

using hw::GpuModel;

CeerPredictor::CeerPredictor(CeerModel model) : model_(std::move(model))
{
}

double
CeerPredictor::predictIterationUs(const PredictPlan &plan, GpuModel gpu,
                                  int num_gpus,
                                  const PredictOptions &options) const
{
    double total = plan.heavyUs(gpu);
    if (options.includeLightAndCpu) {
        total += plan.lightUs();
        total += plan.cpuUs();
    }
    if (options.includeComm) {
        total += model_.comm.overheadUs(gpu, num_gpus,
                                        plan.paramCount());
    }
    return total;
}

PredictionBreakdown
CeerPredictor::breakdown(const PredictPlan &plan, GpuModel gpu,
                         int num_gpus) const
{
    // Same terms, in the same order, as predictIterationUs(plan, ...),
    // so totalUs() is bit-equal to the prediction.
    PredictionBreakdown result;
    result.heavyUs = plan.heavyUs(gpu);
    result.lightUs = plan.lightUs();
    result.cpuUs = plan.cpuUs();
    result.commUs =
        model_.comm.overheadUs(gpu, num_gpus, plan.paramCount());
    for (std::size_t i = 0; i < plan.groupCount(); ++i) {
        result.heavyByType.emplace_back(plan.groupOp(i),
                                        plan.groupHeavyUs(i, gpu));
    }
    std::stable_sort(result.heavyByType.begin(),
                     result.heavyByType.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });
    return result;
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
                               std::int64_t batch_per_gpu,
                               const PredictOptions &options) const
{
    return makeTrainingPrediction(
        predictIterationUs(plan, gpu, num_gpus, options), num_gpus,
        dataset_samples, batch_per_gpu);
}

TrainingPrediction
CeerPredictor::predictTraining(const PredictPlan &plan,
                               const cloud::GpuInstance &instance,
                               std::int64_t dataset_samples,
                               std::int64_t batch_per_gpu,
                               const PredictOptions &options) const
{
    return predictTraining(plan, instance.gpu, instance.numGpus,
                           dataset_samples, batch_per_gpu, options);
}

std::vector<double>
CeerPredictor::predictBatch(const PredictPlan &plan,
                            const std::vector<PredictRequest> &requests,
                            const PredictOptions &options) const
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
        out.push_back(predictIterationUs(plan, request.gpu,
                                         request.numGpus, options));
    }
    return out;
}

} // namespace core
} // namespace ceer

/**
 * @file
 * Extension experiment (beyond the paper): batch-size generalization.
 *
 * The paper trains and evaluates Ceer at batch 32 per GPU. Because
 * Ceer's heavy-op models regress on *input sizes*, a model trained at
 * one batch should transfer to others — the op instances at batch 16
 * or 64 are just different points on the same input-size axis. This
 * bench trains at batch 32 only and predicts held-out CNNs at batches
 * 16, 48 and 64, measuring how the error degrades outside the training
 * batch.
 */

#include "bench/common.h"

#include <cmath>

#include "models/model_zoo.h"
#include "util/strings.h"

int
main(int argc, char **argv)
{
    using namespace ceer;
    using hw::GpuModel;

    const bench::BenchConfig config = bench::parseBenchFlags(argc, argv);
    util::printBanner(std::cout,
                      "Extension: train Ceer at batch 32, predict "
                      "batches 16/48/64");
    const bench::TrainedCeer trained =
        bench::trainOnPaperTrainingSet(config); // batch 32 profiles.
    const core::CeerPredictor predictor(trained.model);

    util::TablePrinter table(
        {"CNN", "batch", "mean |err| across GPUs"});
    std::map<std::int64_t, double> error_by_batch;
    std::map<std::int64_t, int> points_by_batch;
    std::uint64_t salt = 900;
    for (const std::string &name : models::testSetNames()) {
        for (std::int64_t batch : {16, 32, 48, 64}) {
            const graph::Graph g = models::buildModel(name, batch);
            const core::PredictPlan plan = predictor.compile(g);
            double error_sum = 0.0;
            for (GpuModel gpu : hw::allGpuModels()) {
                const double observed = bench::observedIterationUs(
                    g, gpu, 1, config, ++salt);
                const double predicted =
                    predictor.predictIterationUs(plan, gpu, 1);
                error_sum += std::abs(predicted / observed - 1.0);
            }
            const double mean_error = error_sum / 4.0;
            error_by_batch[batch] += mean_error;
            points_by_batch[batch]++;
            table.addRow({name, std::to_string(batch),
                          util::format("%.1f%%", 100.0 * mean_error)});
        }
        table.addSeparator();
    }
    table.print(std::cout);

    std::cout << "mean error by batch:";
    for (auto &[batch, total] : error_by_batch) {
        total /= points_by_batch[batch];
        std::cout << util::format(" b%lld=%.1f%%",
                                  static_cast<long long>(batch),
                                  100.0 * total);
    }
    std::cout << "\n";

    bench::CheckSummary summary;
    summary.check("in-distribution (batch 32) error",
                  error_by_batch[32], 0.0, 0.08);
    // Interpolation to nearby batches stays accurate; mild degradation
    // is acceptable since per-op input sizes move along the fitted
    // regressions.
    summary.check("interpolated batch-16 error", error_by_batch[16],
                  0.0, 0.15);
    summary.check("extrapolated batch-48 error", error_by_batch[48],
                  0.0, 0.15);
    summary.check("extrapolated batch-64 error", error_by_batch[64],
                  0.0, 0.20);
    return summary.finish();
}

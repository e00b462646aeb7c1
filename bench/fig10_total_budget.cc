/**
 * @file
 * Figure 10: total-budget scenario — training ResNet-101 on ImageNet
 * with a hard cap on total rental spend; pick the feasible instance
 * with the lowest training time.
 *
 * The paper uses a $10 cap on its testbed. Our simulated substrate is
 * ~2x slower in absolute terms (see EXPERIMENTS.md), so the default
 * budget here is $20; pass --budget to override. Claims checked: every
 * P2 instance and the 4-GPU P3 instance blow the budget, Ceer predicts
 * feasibility correctly for every instance, the 3-GPU P3 instance is
 * both predicted and observed optimal, and the cheapest-per-hour
 * feasible instance (1-GPU G3) is ~9x slower than Ceer's choice.
 */

#include "bench/common.h"

#include <cmath>

#include "cloud/instances.h"
#include "core/recommender.h"
#include "models/model_zoo.h"
#include "util/strings.h"

int
main(int argc, char **argv)
{
    using namespace ceer;
    using hw::GpuModel;

    util::Flags flags;
    flags.defineDouble("budget", 20.0,
                       "total budget in USD (paper: $10 on its ~2x "
                       "faster testbed)");
    const bench::BenchConfig config =
        bench::parseBenchFlags(argc, argv, &flags);
    const double budget = flags.getDouble("budget");

    util::printBanner(
        std::cout,
        util::format("Figure 10: ResNet-101 training time under a "
                     "$%.0f total budget", budget));
    const bench::TrainedCeer trained =
        bench::trainOnPaperTrainingSet(config);
    const core::CeerPredictor predictor(trained.model);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    const graph::Graph g = models::buildModel("resnet_101", config.batch);

    core::WorkloadSpec workload{&g, bench::kImageNetSamples,
                                config.batch};
    core::Constraints constraints;
    constraints.totalBudgetUsd = budget;
    const core::Recommendation recommendation = core::recommend(
        predictor, workload, catalog.instances(),
        core::Objective::MinTrainingTime, constraints);

    util::TablePrinter table({"instance", "obs time", "pred time",
                              "obs cost", "pred cost", "feasible"});
    int feasibility_agreements = 0;
    bool p2_all_infeasible = true;
    bool p3_4gpu_infeasible = false;
    double observed_best_hours = 1e18;
    std::string observed_best;
    double g3_1gpu_hours = 0.0;
    std::uint64_t salt = 200;
    for (const auto &evaluation : recommendation.evaluations) {
        const auto &instance = evaluation.instance;
        const std::int64_t iterations =
            bench::kImageNetSamples / (instance.numGpus * config.batch);
        const double obs_iter_us = bench::observedIterationUs(
            g, instance.gpu, instance.numGpus, config, ++salt);
        const double obs_hours =
            obs_iter_us * static_cast<double>(iterations) / 3.6e9;
        const double obs_cost = obs_hours * instance.hourlyUsd;
        const bool obs_feasible = obs_cost <= budget;
        table.addRow({instance.name, util::format("%.2fh", obs_hours),
                      util::format("%.2fh", evaluation.prediction.hours),
                      util::format("$%.2f", obs_cost),
                      util::format("$%.2f", evaluation.costUsd),
                      evaluation.feasible() ? "yes" : "no"});
        feasibility_agreements +=
            obs_feasible == evaluation.feasible();
        if (instance.gpu == GpuModel::K80)
            p2_all_infeasible &= !evaluation.feasible();
        if (instance.gpu == GpuModel::V100 && instance.numGpus == 4)
            p3_4gpu_infeasible = !evaluation.feasible();
        if (obs_feasible && obs_hours < observed_best_hours) {
            observed_best_hours = obs_hours;
            observed_best = instance.name;
        }
        if (instance.gpu == GpuModel::M60 && instance.numGpus == 1)
            g3_1gpu_hours = obs_hours;
    }
    table.print(std::cout);

    std::cout << "Ceer picks: "
              << (recommendation.bestIndex >= 0
                      ? recommendation.best().instance.name
                      : std::string("(none)"))
              << ", observed best: " << observed_best << "\n";

    bench::CheckSummary summary;
    summary.check("instances where predicted feasibility == observed "
                  "(paper: all)",
                  feasibility_agreements, 15, 16);
    summary.check("all P2 instances infeasible (paper: yes)",
                  p2_all_infeasible ? 1.0 : 0.0, 1.0, 1.0);
    summary.check("4-GPU P3 infeasible (paper: yes)",
                  p3_4gpu_infeasible ? 1.0 : 0.0, 1.0, 1.0);
    summary.check(
        "Ceer's pick is the 3-GPU P3 instance (paper: yes)",
        recommendation.bestIndex >= 0 &&
                recommendation.best().instance.gpu == GpuModel::V100 &&
                recommendation.best().instance.numGpus == 3
            ? 1.0
            : 0.0,
        1.0, 1.0);
    summary.check("Ceer's pick matches the observed optimum",
                  recommendation.bestIndex >= 0 &&
                          recommendation.best().instance.name ==
                              observed_best
                      ? 1.0
                      : 0.0,
                  1.0, 1.0);
    summary.check("1-GPU G3 slowdown vs Ceer's pick (paper: 9.1x)",
                  g3_1gpu_hours / observed_best_hours, 5.0, 14.0);
    return summary.finish();
}

/**
 * @file
 * End-to-end Ceer walkthrough: profile the 8 training CNNs on all four
 * simulated AWS GPU models, train Ceer, then (a) validate prediction
 * accuracy on a held-out CNN and (b) recommend the optimal instance
 * for training it under a user objective.
 *
 * Usage:
 *   recommend_instance [--model resnet_101] [--iters 120]
 *       [--objective cost|time] [--total-budget 25]
 *       [--samples 1200000] [--batch 32]
 */

#include <algorithm>
#include <iostream>
#include <numeric>
#include <vector>

#include "baselines/baselines.h"
#include "cloud/instances.h"
#include "core/predictor.h"
#include "core/recommender.h"
#include "core/trainer.h"
#include "models/model_zoo.h"
#include "profile/profiler.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table.h"

int
main(int argc, char **argv)
{
    using namespace ceer;

    util::Flags flags;
    flags.defineString("model", "resnet_101",
                       "held-out CNN to place (a test-set model)");
    flags.defineInt("iters", 120,
                    "profiling iterations per (CNN, GPU) run");
    flags.defineString("objective", "cost", "minimize 'cost' or 'time'");
    flags.defineDouble("total-budget", 1e18,
                       "total training budget in USD");
    flags.defineInt("samples", 1200000, "dataset size (ImageNet: 1.2M)");
    flags.defineInt("batch", 32, "per-GPU batch size");
    flags.parse(argc, argv);

    const std::int64_t batch = flags.getInt("batch");
    const std::int64_t samples = flags.getInt("samples");

    // 1. The empirical study: profile the training CNNs.
    profile::CollectOptions collect;
    collect.batch = batch;
    collect.iterations = flags.getIntAs<int>("iters");
    std::cout << "profiling " << models::trainingSetNames().size()
              << " training CNNs on 4 GPU models ("
              << collect.iterations << " iterations each)...\n";
    const profile::ProfileDataset dataset =
        profile::collectProfiles(models::trainingSetNames(), collect);

    // 2. Train Ceer.
    const core::CeerModel model = core::trainCeer(dataset);
    const auto [r2_lo, r2_hi] = model.opModelR2Range();
    std::cout << "trained Ceer: " << model.heavyOps.size()
              << " heavy op types, R^2 in "
              << util::format("[%.2f, %.2f]", r2_lo, r2_hi)
              << ", light median "
              << util::format("%.0fus", model.lightMedianUs)
              << ", CPU median "
              << util::format("%.0fus", model.cpuMedianUs) << "\n\n";
    const core::CeerPredictor predictor(model);

    // 3. Validate on the held-out CNN: predicted vs observed
    //    per-iteration time on every 4-GPU instance.
    const std::string target = flags.getString("model");
    const graph::Graph g = models::buildModel(target, batch);
    const core::PredictPlan plan = predictor.compile(g);
    std::cout << "validation on held-out " << target << " (4 GPUs):\n";
    util::TablePrinter validation(
        {"GPU", "observed/iter", "predicted/iter", "error"});
    for (hw::GpuModel gpu : hw::allGpuModels()) {
        sim::SimConfig config;
        config.gpu = gpu;
        config.numGpus = 4;
        config.seed = 20260705;
        sim::TrainingSimulator simulator(g, config);
        const double observed =
            simulator.run(collect.iterations).iterationUs.mean();
        const double predicted =
            predictor.predictIterationUs(plan, gpu, 4);
        validation.addRow(
            {hw::gpuModelName(gpu), util::humanMicros(observed),
             util::humanMicros(predicted),
             util::format("%+.1f%%",
                          100.0 * (predicted - observed) / observed)});
    }
    validation.print(std::cout);

    // 4. Recommend an instance.
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    core::WorkloadSpec workload{&g, samples, batch};
    core::Constraints constraints;
    constraints.totalBudgetUsd = flags.getDouble("total-budget");
    const core::Objective objective =
        flags.getString("objective") == "time"
            ? core::Objective::MinTrainingTime
            : core::Objective::MinCost;
    const core::Recommendation recommendation =
        core::recommend(predictor, workload, catalog.instances(),
                        objective, constraints);

    std::cout << "\nevaluations for " << target << " over "
              << util::format("%.1fM", samples / 1e6) << " samples:\n";
    util::TablePrinter table(
        {"instance", "GPUs", "$/hr", "pred. time", "pred. cost",
         "feasible"});
    for (const auto &evaluation : recommendation.evaluations) {
        table.addRow({evaluation.instance.name,
                      std::to_string(evaluation.instance.numGpus),
                      util::format("%.3f",
                                   evaluation.instance.hourlyUsd),
                      util::format("%.2fh", evaluation.prediction.hours),
                      util::format("$%.2f", evaluation.costUsd),
                      evaluation.feasible() ? "yes" : "no"});
    }
    table.print(std::cout);

    if (recommendation.bestIndex >= 0) {
        const auto &best = recommendation.best();
        std::cout << "\nCeer recommends: " << best.instance.name << " ("
                  << best.instance.numGpus << "x "
                  << hw::gpuModelName(best.instance.gpu) << ") -> "
                  << util::format("%.2fh", best.prediction.hours)
                  << " for " << util::format("$%.2f", best.costUsd)
                  << "\n";

        // Explain where Ceer thinks the time goes on that instance:
        // the Eq. 2 terms, then the three heaviest op-type groups
        // (ties keep the graph's first-appearance order).
        const hw::GpuModel gpu = best.instance.gpu;
        const core::IterationTerms terms =
            predictor.terms(plan, gpu, best.instance.numGpus);
        std::cout << "per-iteration breakdown: heavy "
                  << util::humanMicros(terms.heavyUs) << ", light "
                  << util::humanMicros(terms.lightUs) << ", CPU "
                  << util::humanMicros(terms.cpuUs) << ", comm "
                  << util::humanMicros(terms.commUs) << "; top ops:";
        std::vector<std::size_t> groups(plan.groupCount());
        std::iota(groups.begin(), groups.end(), std::size_t{0});
        std::stable_sort(groups.begin(), groups.end(),
                         [&](std::size_t a, std::size_t b) {
                             return plan.groupHeavyUs(a, gpu) >
                                    plan.groupHeavyUs(b, gpu);
                         });
        for (std::size_t i = 0;
             i < std::min<std::size_t>(3, groups.size()); ++i) {
            std::cout << " " << graph::opTypeName(plan.groupOp(groups[i]))
                      << " ("
                      << util::humanMicros(
                             plan.groupHeavyUs(groups[i], gpu))
                      << ")";
        }
        std::cout << "\n";
        const auto &cheap =
            baselines::cheapestInstance(catalog.instances());
        const auto cheap_prediction =
            predictor.predictTraining(plan, cheap.gpu, cheap.numGpus,
                                      samples, batch);
        std::cout << "baseline (cheapest instance, " << cheap.name
                  << "): "
                  << util::format("%.2fh", cheap_prediction.hours)
                  << " for "
                  << util::format(
                         "$%.2f",
                         cheap_prediction.costUsd(cheap.hourlyUsd))
                  << "\n";
    } else {
        std::cout << "\nno instance satisfies the constraints\n";
    }
    return 0;
}

/**
 * @file
 * The downstream-user story: define your *own* CNN with GraphBuilder,
 * then ask Ceer where to train it — no zoo involvement.
 *
 * The example builds a compact VGG-ish network for 64x64 inputs,
 * prints its layer summary and memory footprint, trains Ceer on the
 * paper's training set, and recommends an instance for a 200k-sample
 * dataset under a $15 total budget.
 *
 * Usage:
 *   custom_cnn [--iters 120] [--batch 64] [--total-budget 15]
 */

#include <iostream>

#include "core/recommender.h"
#include "core/trainer.h"
#include "graph/autodiff.h"
#include "graph/builder.h"
#include "graph/summary.h"
#include "hw/memory.h"
#include "hw/op_cost.h"
#include "models/model_zoo.h"
#include "profile/profiler.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace ceer;

/** A small custom network: 4 conv stages + 2 FC layers, 64x64 RGB. */
graph::Graph
buildMyCnn(std::int64_t batch)
{
    graph::GraphBuilder b("my_cnn", batch);
    graph::NodeId x = b.imageInput(64, 64, 3);
    x = b.transpose(x, "data_format");

    graph::ConvOptions conv;
    conv.batchNorm = true;
    conv.relu = true;
    for (int stage = 0; stage < 4; ++stage) {
        const std::int64_t width = 32 << stage;
        x = b.conv2d(x, width, 3, 3, conv,
                     util::format("stage%d/a", stage + 1));
        x = b.conv2d(x, width, 3, 3, conv,
                     util::format("stage%d/b", stage + 1));
        x = b.maxPool(x, 2, 2, graph::PaddingMode::Valid,
                      util::format("stage%d/pool", stage + 1));
    }
    x = b.fullyConnected(x, 512, /*relu=*/true, "fc1");
    x = b.dropout(x, "drop");
    x = b.fullyConnected(x, 100, /*relu=*/false, "logits");

    const graph::NodeId loss = b.softmaxLoss(x);
    graph::addTrainingOps(b.graph(), loss);
    return b.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    util::Flags flags;
    flags.defineInt("iters", 120, "profiling iterations per run");
    flags.defineInt("batch", 64, "per-GPU batch size");
    flags.defineDouble("total-budget", 15.0, "training budget (USD)");
    flags.defineInt("samples", 200000, "dataset size");
    flags.parse(argc, argv);
    const std::int64_t batch = flags.getInt("batch");

    // 1. Define the network and inspect it.
    const graph::Graph g = buildMyCnn(batch);
    graph::summarize(g, 2, [](const graph::Node &node) {
        return hw::opCost(node).flops;
    }).print(std::cout);
    const hw::MemoryEstimate memory = hw::estimateTrainingMemory(g);
    std::cout << "estimated training footprint: "
              << util::format("%.1f GB", memory.totalGB())
              << " per GPU at batch " << batch << "\n\n";

    // 2. Train Ceer once on the paper's training CNNs (the custom
    //    network itself is never profiled — that is the point).
    profile::CollectOptions options;
    options.iterations = flags.getIntAs<int>("iters");
    std::cout << "training Ceer on the 8-CNN training set...\n";
    const core::CeerModel model = core::trainCeer(
        profile::collectProfiles(models::trainingSetNames(), options));
    const core::CeerPredictor predictor(model);

    // 3. Recommend an instance for the custom workload.
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    core::WorkloadSpec workload{&g, flags.getInt("samples"), batch};
    core::Constraints constraints;
    constraints.totalBudgetUsd = flags.getDouble("total-budget");
    const core::Recommendation recommendation = core::recommend(
        predictor, workload, catalog.instances(),
        core::Objective::MinTrainingTime, constraints);

    util::TablePrinter table({"instance", "pred time", "pred cost",
                              "fits memory", "feasible"});
    for (const auto &evaluation : recommendation.evaluations) {
        table.addRow({evaluation.instance.name,
                      util::format("%.2fh",
                                   evaluation.prediction.hours),
                      util::format("$%.2f", evaluation.costUsd),
                      evaluation.fitsMemory ? "yes" : "no",
                      evaluation.feasible() ? "yes" : "no"});
    }
    table.print(std::cout);

    if (recommendation.bestIndex < 0) {
        std::cout << "no instance fits the budget — raise "
                     "--total-budget\n";
        return 1;
    }
    const auto &best = recommendation.best();
    std::cout << "\nfastest instance within $"
              << util::format("%.0f", constraints.totalBudgetUsd)
              << ": " << best.instance.name << " ("
              << util::format("%.2fh", best.prediction.hours) << ", "
              << util::format("$%.2f", best.costUsd) << ")\n";
    return 0;
}

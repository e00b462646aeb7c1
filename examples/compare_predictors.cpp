/**
 * @file
 * Head-to-head comparison of Ceer against the prior-work-style
 * predictors on the held-out CNNs (Sec. VII): full Ceer, Ceer without
 * light/CPU medians (layer-level modeling a la Giannini et al.), Ceer
 * without the comm model (Cai/Justus et al.), and the PALEO-style
 * FLOP-count predictor.
 *
 * Usage:
 *   compare_predictors [--iters 120] [--gpus 1|2|4]
 */

#include <cmath>
#include <iostream>

#include "baselines/baselines.h"
#include "core/predictor.h"
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
    flags.defineInt("iters", 120, "profiling iterations per run");
    flags.defineInt("gpus", 1, "data-parallel width to evaluate");
    flags.defineInt("batch", 32, "per-GPU batch size");
    flags.parse(argc, argv);
    const int k = flags.getIntAs<int>("gpus");
    const std::int64_t batch = flags.getInt("batch");

    profile::CollectOptions options;
    options.batch = batch;
    options.iterations = flags.getIntAs<int>("iters");
    std::cout << "training Ceer on the 8-CNN training set...\n";
    const core::CeerModel model = core::trainCeer(
        profile::collectProfiles(models::trainingSetNames(), options));
    const core::CeerPredictor predictor(model);
    const baselines::FlopsPredictor paleo(0.5);

    util::TablePrinter table({"CNN", "GPU", "Ceer", "no light/CPU",
                              "no comm", "PALEO-style"});
    double errors[4] = {0, 0, 0, 0};
    int points = 0;
    for (const std::string &name : models::testSetNames()) {
        const graph::Graph g = models::buildModel(name, batch);
        const core::PredictPlan plan = predictor.compile(g);
        for (hw::GpuModel gpu : hw::allGpuModels()) {
            sim::SimConfig config;
            config.gpu = gpu;
            config.numGpus = k;
            config.seed = 987 + points;
            sim::TrainingSimulator simulator(g, config);
            const double observed =
                simulator.run(options.iterations).iterationUs.mean();

            const double predictions[4] = {
                predictor.predictIterationUs(plan, gpu, k),
                predictor.predictIterationUs(
                    plan, gpu, k, baselines::heavyOnlyOptions()),
                predictor.predictIterationUs(
                    plan, gpu, k, baselines::noCommOptions()),
                paleo.predictIterationUs(g, gpu),
            };
            std::vector<std::string> row{name, hw::gpuModelName(gpu)};
            for (int i = 0; i < 4; ++i) {
                const double error =
                    predictions[i] / observed - 1.0;
                errors[i] += std::abs(error);
                row.push_back(util::format("%+.1f%%", 100.0 * error));
            }
            table.addRow(row);
            ++points;
        }
    }
    table.print(std::cout);

    std::cout << util::format(
        "\nmean |error| at k=%d:\n"
        "  Ceer (full):                 %5.1f%%\n"
        "  Ceer w/o light+CPU medians:  %5.1f%%\n"
        "  Ceer w/o comm model:         %5.1f%%\n"
        "  PALEO-style (FLOPs only):    %5.1f%%\n",
        k, 100.0 * errors[0] / points, 100.0 * errors[1] / points,
        100.0 * errors[2] / points, 100.0 * errors[3] / points);
    return 0;
}

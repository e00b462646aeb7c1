/**
 * @file
 * What-if analysis with a saved Ceer model: for a chosen CNN, predict
 * per-iteration time, full-training time and cost across every GPU
 * family and 1-8 GPUs — without touching the simulator. Demonstrates
 * loading a model produced by `export_profiles` (trains one on the fly
 * if no file is given) and the comm model's extrapolation beyond the
 * trained widths.
 *
 * Usage:
 *   predict_scaling [--model vgg_19] [--ceer-model ceer_model.txt]
 *       [--samples 1200000] [--batch 32] [--max-gpus 8]
 */

#include <fstream>
#include <iostream>

#include "cloud/instances.h"
#include "core/predictor.h"
#include "core/trainer.h"
#include "models/model_zoo.h"
#include "profile/profiler.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/table.h"

int
main(int argc, char **argv)
{
    using namespace ceer;

    util::Flags flags;
    flags.defineString("model", "vgg_19", "CNN to analyze");
    flags.defineString("ceer-model", "",
                       "trained model file (empty: train now)");
    flags.defineInt("samples", 1200000, "dataset size");
    flags.defineInt("batch", 32, "per-GPU batch size");
    flags.defineInt("max-gpus", 8, "largest data-parallel width");
    flags.defineInt("iters", 120, "profiling iterations if training");
    flags.parse(argc, argv);

    core::CeerModel model;
    const std::string model_path = flags.getString("ceer-model");
    if (!model_path.empty()) {
        std::ifstream in(model_path);
        if (!in)
            util::fatal("cannot open " + model_path);
        model = core::CeerModel::load(in);
        std::cout << "loaded Ceer model from " << model_path << "\n";
    } else {
        profile::CollectOptions options;
        options.batch = flags.getInt("batch");
        options.iterations = flags.getIntAs<int>("iters");
        std::cout << "no --ceer-model given; training on the 8-CNN "
                     "training set...\n";
        model = core::trainCeer(profile::collectProfiles(
            models::trainingSetNames(), options));
    }
    const core::CeerPredictor predictor(std::move(model));

    const std::string target = flags.getString("model");
    const std::int64_t batch = flags.getInt("batch");
    const std::int64_t samples = flags.getInt("samples");
    const int max_gpus = flags.getIntAs<int>("max-gpus");
    const graph::Graph g = models::buildModel(target, batch);
    const core::PredictPlan plan = predictor.compile(g);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();

    std::cout << "\nscaling forecast for " << target << " ("
              << util::format("%.1fM", g.totalParameters() / 1e6)
              << " params, " << util::format("%.1fM", samples / 1e6)
              << " samples, batch " << batch << "/GPU):\n";
    for (hw::GpuModel gpu : hw::allGpuModels()) {
        util::TablePrinter table({"GPUs", "pred/iter", "pred total",
                                  "pred cost", "speedup vs 1"});
        double base_hours = 0.0;
        for (int k = 1; k <= max_gpus; ++k) {
            const core::TrainingPrediction prediction =
                predictor.predictTraining(plan, gpu, k, samples, batch);
            // Instances beyond 4 GPUs are priced linearly per GPU, as
            // the paper does for its proxies.
            const double hourly =
                k <= 4 ? catalog.find(gpu, k).hourlyUsd
                       : catalog.find(gpu, 1).hourlyUsd * k;
            if (k == 1)
                base_hours = prediction.hours;
            table.addRow(
                {std::to_string(k),
                 util::humanMicros(prediction.iterationUs),
                 util::format("%.2fh", prediction.hours),
                 util::format("$%.2f", prediction.costUsd(hourly)),
                 util::format("%.2fx",
                              base_hours / prediction.hours)});
        }
        std::cout << "\n" << hw::gpuModelName(gpu) << " ("
                  << hw::gpuFamilyName(gpu) << "):\n";
        table.print(std::cout);
    }
    return 0;
}

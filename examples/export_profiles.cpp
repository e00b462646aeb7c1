/**
 * @file
 * Reproduces the paper's data pipeline as a user workflow: run the
 * operation-level empirical study, export the profile dataset to CSV,
 * train Ceer, and save the trained model to a text file that
 * `predict_scaling` (or any downstream tool) can load.
 *
 * Usage:
 *   export_profiles [--iters 200] [--out-profiles profiles.csv]
 *       [--out-model ceer_model.txt] [--models vgg_11,inception_v1,...]
 */

#include <fstream>
#include <iostream>

#include "core/trainer.h"
#include "models/model_zoo.h"
#include "profile/profiler.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/strings.h"

int
main(int argc, char **argv)
{
    using namespace ceer;

    util::Flags flags;
    flags.defineInt("iters", 200, "profiling iterations per run");
    flags.defineInt("batch", 32, "per-GPU batch size");
    flags.defineString("out-profiles", "profiles.csv",
                       "CSV file for the op-level profile dataset");
    flags.defineString("out-model", "ceer_model.txt",
                       "file for the trained Ceer model");
    flags.defineString("models", "",
                       "comma-separated CNNs to profile (default: the "
                       "paper's 8-model training set)");
    flags.parse(argc, argv);

    std::vector<std::string> model_names = models::trainingSetNames();
    if (!flags.getString("models").empty()) {
        model_names.clear();
        for (const auto &name :
             util::split(flags.getString("models"), ',')) {
            if (!name.empty())
                model_names.push_back(util::trim(name));
        }
    }

    profile::CollectOptions options;
    options.batch = flags.getInt("batch");
    options.iterations = flags.getIntAs<int>("iters");
    std::cout << "profiling " << model_names.size()
              << " CNNs x 4 GPU models x k=1..4 ("
              << options.iterations << " iterations each)...\n";
    const profile::ProfileDataset dataset =
        profile::collectProfiles(model_names, options);

    const std::string profile_path = flags.getString("out-profiles");
    {
        std::ofstream out(profile_path);
        if (!out)
            util::fatal("cannot open " + profile_path);
        dataset.saveCsv(out);
    }
    std::cout << "wrote " << dataset.ops().size()
              << " op-instance profiles to " << profile_path << "\n";

    const core::CeerModel model = core::trainCeer(dataset);
    const std::string model_path = flags.getString("out-model");
    {
        std::ofstream out(model_path);
        if (!out)
            util::fatal("cannot open " + model_path);
        model.save(out);
    }
    const auto [r2_lo, r2_hi] = model.opModelR2Range();
    std::cout << "wrote trained Ceer model to " << model_path << " ("
              << model.heavyOps.size() << " heavy op types, R^2 "
              << util::format("[%.2f, %.2f]", r2_lo, r2_hi) << ")\n";
    return 0;
}

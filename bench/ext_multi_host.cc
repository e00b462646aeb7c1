/**
 * @file
 * Extension experiment (paper Sec. VI, limitation 2): GPUs spread
 * across hosts.
 *
 * The paper's comm model is trained on single-host instances and the
 * authors note it "will have to be retrained" for multi-host
 * deployments. We simulate one-GPU-per-host deployments (NIC on the
 * all-reduce path), show the single-host-trained Ceer underpredicts
 * them, and then retrain the comm model on multi-host runs to recover
 * accuracy — exactly the remediation the paper prescribes.
 */

#include "bench/common.h"

#include <cmath>

#include "core/trainer.h"
#include "models/model_zoo.h"
#include "sim/simulator.h"
#include "util/strings.h"

namespace {

double
observedMultiHostUs(const ceer::graph::Graph &g, ceer::hw::GpuModel gpu,
                    int k, int gpus_per_host, int iterations,
                    std::uint64_t seed)
{
    ceer::sim::SimConfig config;
    config.gpu = gpu;
    config.numGpus = k;
    config.gpusPerHost = gpus_per_host;
    config.seed = seed;
    ceer::sim::TrainingSimulator simulator(g, config);
    return simulator.run(iterations).iterationUs.mean();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ceer;
    using hw::GpuModel;

    const bench::BenchConfig config = bench::parseBenchFlags(argc, argv);
    util::printBanner(std::cout,
                      "Extension: multi-host data parallelism "
                      "(1 GPU per host, k = 4)");

    // Single-host-trained Ceer (the paper's setup).
    const bench::TrainedCeer single_host =
        bench::trainOnPaperTrainingSet(config);
    const core::CeerPredictor single_predictor(single_host.model);

    // Retrained comm model: same pipeline, but the profiled multi-GPU
    // runs span hosts.
    profile::CollectOptions multi_options;
    multi_options.batch = config.batch;
    multi_options.iterations = config.iterations;
    multi_options.seed = config.seed + 777;
    multi_options.gpusPerHost = 1;
    const core::CeerModel retrained = core::trainCeer(
        profile::collectProfiles(models::trainingSetNames(),
                                 multi_options));
    const core::CeerPredictor retrained_predictor(retrained);

    util::TablePrinter table({"CNN", "GPU", "1-host obs", "4-host obs",
                              "1-host-trained err", "retrained err"});
    double slowdown_sum = 0.0;
    double stale_error = 0.0, retrained_error = 0.0;
    double stale_bias = 0.0;
    int points = 0;
    std::uint64_t salt = 1300;
    for (const std::string &name : models::testSetNames()) {
        const graph::Graph g = models::buildModel(name, config.batch);
        const core::PredictPlan stale_plan = single_predictor.compile(g);
        const core::PredictPlan fresh_plan =
            retrained_predictor.compile(g);
        for (GpuModel gpu : hw::allGpuModels()) {
            const double single_obs = observedMultiHostUs(
                g, gpu, 4, 8, config.evalIterations,
                config.seed + ++salt);
            const double multi_obs = observedMultiHostUs(
                g, gpu, 4, 1, config.evalIterations,
                config.seed + ++salt);
            const double stale =
                single_predictor.predictIterationUs(stale_plan, gpu, 4);
            const double fresh =
                retrained_predictor.predictIterationUs(fresh_plan, gpu,
                                                       4);
            const double stale_err = stale / multi_obs - 1.0;
            const double fresh_err = fresh / multi_obs - 1.0;
            slowdown_sum += multi_obs / single_obs;
            stale_error += std::abs(stale_err);
            stale_bias += stale_err;
            retrained_error += std::abs(fresh_err);
            ++points;
            table.addRow({name, hw::gpuModelName(gpu),
                          util::humanMicros(single_obs),
                          util::humanMicros(multi_obs),
                          util::format("%+.1f%%", 100.0 * stale_err),
                          util::format("%+.1f%%", 100.0 * fresh_err)});
        }
    }
    table.print(std::cout);
    std::cout << util::format(
        "mean 4-host/1-host slowdown: %.2fx; stale model error "
        "%.1f%% (bias %+.1f%%), retrained %.1f%%\n",
        slowdown_sum / points, 100.0 * stale_error / points,
        100.0 * stale_bias / points, 100.0 * retrained_error / points);

    bench::CheckSummary summary;
    summary.check("multi-host deployments are slower (NIC-bound ring)",
                  slowdown_sum / points, 1.02, 10.0);
    summary.check("single-host-trained Ceer underpredicts multi-host "
                  "(paper Sec. VI: needs retraining)",
                  -stale_bias / points, 0.02, 1.0);
    summary.check("retrained comm model recovers accuracy",
                  retrained_error / points, 0.0, 0.10);
    summary.check("retraining beats the stale model",
                  (stale_error - retrained_error) / points, 0.0, 1.0);
    return summary.finish();
}

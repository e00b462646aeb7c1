/**
 * @file
 * Ablation (Sec. IV-A): dropping the communication-overhead term
 * S_GPU(CNN) from Eq. 2. The paper reports 5-20% extra error at k = 1
 * (almost 30% for AlexNet) and larger errors for multi-GPU instances.
 */

#include "bench/common.h"

#include <cmath>

#include "baselines/baselines.h"
#include "models/model_zoo.h"
#include "util/strings.h"

int
main(int argc, char **argv)
{
    using namespace ceer;
    using hw::GpuModel;

    const bench::BenchConfig config = bench::parseBenchFlags(argc, argv);
    util::printBanner(std::cout,
                      "Ablation: prediction without the communication "
                      "overhead S_GPU (Eq. 1 instead of Eq. 2)");
    const bench::TrainedCeer trained =
        bench::trainOnPaperTrainingSet(config);
    const core::CeerPredictor predictor(trained.model);

    util::TablePrinter table({"CNN", "GPUs", "mean full err",
                              "mean no-comm err"});
    double alexnet_k1_error = 0.0;
    double k1_error_min = 1.0, k1_error_max = 0.0;
    double k4_error_sum = 0.0;
    int k4_points = 0;
    std::uint64_t salt = 700;
    for (const std::string &name : models::testSetNames()) {
        const graph::Graph g = models::buildModel(name, config.batch);
        const core::PredictPlan plan = predictor.compile(g);
        for (int k : {1, 4}) {
            double full_sum = 0.0, ablated_sum = 0.0;
            for (GpuModel gpu : hw::allGpuModels()) {
                const double observed = bench::observedIterationUs(
                    g, gpu, k, config, ++salt);
                const core::IterationTerms terms =
                    predictor.terms(plan, gpu, k);
                const double full = terms.totalUs();
                const double ablated = baselines::noCommUs(terms);
                full_sum += std::abs(full / observed - 1.0);
                ablated_sum += std::abs(ablated / observed - 1.0);
            }
            const double full_mean = full_sum / 4.0;
            const double ablated_mean = ablated_sum / 4.0;
            table.addRow({name, std::to_string(k),
                          util::format("%.1f%%", 100.0 * full_mean),
                          util::format("%.1f%%", 100.0 * ablated_mean)});
            if (k == 1) {
                k1_error_min = std::min(k1_error_min, ablated_mean);
                k1_error_max = std::max(k1_error_max, ablated_mean);
                if (name == "alexnet")
                    alexnet_k1_error = ablated_mean;
            } else {
                k4_error_sum += ablated_mean;
                ++k4_points;
            }
        }
    }
    table.print(std::cout);

    bench::CheckSummary summary;
    summary.check("no-comm error at k=1, smallest CNN "
                  "(paper: >= ~5%)",
                  k1_error_min, 0.02, 1.0);
    summary.check("no-comm error at k=1, largest CNN "
                  "(paper: up to ~30%, AlexNet)",
                  k1_error_max, 0.15, 0.45);
    summary.check("AlexNet is the worst k=1 case (paper: yes)",
                  alexnet_k1_error >= k1_error_max - 1e-9 ? 1.0 : 0.0,
                  1.0, 1.0);
    summary.check("no-comm error at k=4 is large "
                  "(comm dominates multi-GPU)",
                  k4_error_sum / k4_points, 0.20, 1.0);
    return summary.finish();
}

/**
 * @file
 * Cross-predictor accuracy table (the paper's Table 5 extended with
 * the related-work baselines): every registered baselines::Predictor
 * trained on the 8-CNN training set and evaluated on the 4 held-out
 * test CNNs over the full GPU x k grid.
 *
 * The paper reports ~8-15% mean error for Ceer on unseen CNNs; the
 * PALEO-style FLOP count and the transfer/structure baselines land
 * far above that, which is exactly the comparison this table pins.
 */

#include "bench/common.h"

#include "baselines/evaluate.h"
#include "baselines/predictor.h"
#include "models/model_zoo.h"
#include "util/strings.h"

int
main(int argc, char **argv)
{
    using namespace ceer;

    const bench::BenchConfig config = bench::parseBenchFlags(argc, argv);
    util::printBanner(std::cout,
                      "Cross-predictor accuracy: related-work "
                      "baselines vs Ceer on the held-out test CNNs");

    const profile::ProfileDataset dataset =
        bench::collectTrainingProfiles(config, true);
    const std::vector<std::unique_ptr<baselines::Predictor>>
        predictors = baselines::makePredictors({}, dataset);

    baselines::EvalOptions options;
    options.models = models::testSetNames();
    options.batch = config.batch;
    options.datasetSamples = bench::kImageNetSamples;
    options.evalIterations = config.evalIterations;
    options.seed = config.seed;
    options.threads = config.threads;
    const baselines::EvalReport report =
        baselines::runEvaluation(predictors, options);

    util::TablePrinter table({"predictor", "MAPE (%)", "RMSE (ms)",
                              "rank corr", "agreement"});
    double ceer_mape = 0.0, best_other_mape = 1e18;
    double flops_mape = 0.0, ceer_spearman = 0.0;
    for (const baselines::EvalSummaryRow &row : report.summary) {
        table.addRow({row.predictor,
                      util::format("%.2f", row.mapePct),
                      util::format("%.3f", row.rmseUs / 1000.0),
                      util::format("%.3f", row.meanSpearman),
                      util::format("%.0f%%",
                                   row.agreementRate * 100.0)});
        if (row.predictor == "ceer") {
            ceer_mape = row.mapePct;
            ceer_spearman = row.meanSpearman;
        } else {
            best_other_mape = std::min(best_other_mape, row.mapePct);
        }
        if (row.predictor == "paleo_flops")
            flops_mape = row.mapePct;
    }
    table.print(std::cout);

    bench::CheckSummary summary;
    summary.check("Ceer mean error on unseen CNNs (paper: ~8-15%)",
                  ceer_mape / 100.0, 0.02, 0.20);
    summary.check("Ceer beats every baseline (margin vs best other)",
                  ceer_mape < best_other_mape ? 1.0 : 0.0, 1.0, 1.0);
    summary.check("PALEO-style FLOP error is large (paper: peak "
                  "FLOPS ignores the memory-bound ops)",
                  flops_mape / 100.0, 0.25, 10.0);
    summary.check("Ceer ranks configurations almost perfectly",
                  ceer_spearman, 0.9, 1.0);
    return summary.finish();
}

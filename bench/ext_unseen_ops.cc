/**
 * @file
 * Extension experiment (paper Secs. IV-D and VI, limitations 1/4):
 * predicting a model whose heavy operations were never profiled.
 *
 * A BERT-base-style Transformer is dominated by BatchMatMul,
 * LayerNorm, Gelu and Gather kernels that do not occur in any of the
 * paper's CNNs. Per Sec. IV-D, Ceer falls back to the median estimate
 * for unseen heavy ops — which must underpredict badly — and "will
 * have to be updated with new training data" to handle them. This
 * bench quantifies the failure and verifies that adding the
 * Transformer to the training set restores accuracy.
 */

#include "bench/common.h"

#include <cmath>

#include "core/trainer.h"
#include "models/model_zoo.h"
#include "sim/simulator.h"
#include "util/strings.h"

int
main(int argc, char **argv)
{
    using namespace ceer;
    using hw::GpuModel;

    const bench::BenchConfig config = bench::parseBenchFlags(argc, argv);
    util::printBanner(std::cout,
                      "Extension: predicting a Transformer with a "
                      "CNN-trained Ceer (unseen heavy ops)");

    // CNN-only Ceer (the paper's training set).
    const bench::TrainedCeer cnn_only =
        bench::trainOnPaperTrainingSet(config);
    const core::CeerPredictor cnn_predictor(cnn_only.model);

    // Retrained: the 8 CNNs plus the Transformer.
    profile::CollectOptions options;
    options.batch = config.batch;
    options.iterations = config.iterations;
    options.seed = config.seed + 4321;
    std::vector<std::string> extended = models::trainingSetNames();
    extended.push_back("transformer_encoder");
    const core::CeerModel retrained =
        core::trainCeer(profile::collectProfiles(extended, options));
    const core::CeerPredictor retrained_predictor(retrained);

    const graph::Graph g =
        models::buildTransformerEncoder(config.batch);
    std::cout << "transformer_encoder: " << g.size() << " ops, "
              << util::format("%.1fM", g.totalParameters() / 1e6)
              << " params\n";

    // Which of its op types are heavy-and-unseen for the CNN model?
    std::set<graph::OpType> unseen;
    for (const auto &node : g.nodes()) {
        if (node.device() != graph::Device::Gpu)
            continue;
        if (retrained.classify(node.type) == core::OpClass::Heavy &&
            !cnn_only.model.opModel(GpuModel::V100, node.type)) {
            unseen.insert(node.type);
        }
    }
    std::cout << "heavy op types with no CNN-trained model:";
    for (graph::OpType op : unseen)
        std::cout << " " << graph::opTypeName(op);
    std::cout << "\n\n";

    util::TablePrinter table({"GPU", "observed", "CNN-only Ceer",
                              "retrained", "CNN-only err",
                              "retrained err"});
    const core::PredictPlan stale_plan = cnn_predictor.compile(g);
    const core::PredictPlan fresh_plan = retrained_predictor.compile(g);
    double stale_bias = 0.0, stale_error = 0.0, retrained_error = 0.0;
    std::uint64_t salt = 0;
    for (GpuModel gpu : hw::allGpuModels()) {
        const double observed = bench::observedIterationUs(
            g, gpu, 1, config, 1500 + ++salt);
        const double stale =
            cnn_predictor.predictIterationUs(stale_plan, gpu, 1);
        const double fresh =
            retrained_predictor.predictIterationUs(fresh_plan, gpu, 1);
        const double stale_err = stale / observed - 1.0;
        const double fresh_err = fresh / observed - 1.0;
        stale_bias += stale_err;
        stale_error += std::abs(stale_err);
        retrained_error += std::abs(fresh_err);
        table.addRow({hw::gpuModelName(gpu),
                      util::humanMicros(observed),
                      util::humanMicros(stale),
                      util::humanMicros(fresh),
                      util::format("%+.0f%%", 100.0 * stale_err),
                      util::format("%+.1f%%", 100.0 * fresh_err)});
    }
    table.print(std::cout);

    // Contrast: an unrolled LSTM (Sec. VI's other future-work family)
    // is built almost entirely from CNN-known kernels (MatMul, Slice,
    // Mul, ConcatV2...), so the *same* CNN-trained Ceer predicts it
    // without retraining — the failure above is about unseen ops, not
    // about non-CNN topology per se.
    const graph::Graph lstm =
        models::buildLstmClassifier(config.batch);
    const core::PredictPlan lstm_plan = cnn_predictor.compile(lstm);
    double lstm_error = 0.0;
    for (GpuModel gpu : hw::allGpuModels()) {
        const double observed = bench::observedIterationUs(
            lstm, gpu, 1, config, 1700 + ++salt);
        const double predicted =
            cnn_predictor.predictIterationUs(lstm_plan, gpu, 1);
        lstm_error += std::abs(predicted / observed - 1.0);
    }
    std::cout << util::format(
        "contrast: lstm_classifier (%zu ops, mostly CNN-known "
        "kernels) CNN-only error: %.1f%%\n",
        lstm.size(), 100.0 * lstm_error / 4.0);

    // MobileNet-v1: a plain CNN, but built on depthwise convolutions
    // that postdate the zoo — the paper's "new operations may be
    // developed over time" case (Sec. IV-D) inside the CNN family.
    const graph::Graph mobilenet =
        models::buildMobileNetV1(config.batch);
    const core::PredictPlan mobilenet_plan =
        cnn_predictor.compile(mobilenet);
    double mobilenet_bias = 0.0;
    for (GpuModel gpu : hw::allGpuModels()) {
        const double observed = bench::observedIterationUs(
            mobilenet, gpu, 1, config, 1900 + ++salt);
        const double predicted =
            cnn_predictor.predictIterationUs(mobilenet_plan, gpu, 1);
        mobilenet_bias += predicted / observed - 1.0;
    }
    std::cout << util::format(
        "contrast: mobilenet_v1 (depthwise convs, a post-zoo CNN op) "
        "CNN-only bias: %+.1f%%\n", 100.0 * mobilenet_bias / 4.0);

    bench::CheckSummary summary;
    summary.check("unseen heavy op types in the Transformer "
                  "(BatchMatMul/LayerNorm/Gelu/...)",
                  static_cast<double>(unseen.size()), 3, 10);
    summary.check("CNN-only Ceer underpredicts (median fallback, "
                  "paper Sec. IV-D)",
                  -stale_bias / 4.0, 0.10, 1.0);
    summary.check("retraining with the Transformer restores accuracy",
                  retrained_error / 4.0, 0.0, 0.10);
    summary.check("error reduction from retraining",
                  (stale_error - retrained_error) / 4.0, 0.10, 1.0);
    summary.check("CNN-trained Ceer handles the LSTM without "
                  "retraining (known kernels)",
                  lstm_error / 4.0, 0.0, 0.20);
    summary.check("MobileNet's depthwise convs trigger the fallback "
                  "too (underprediction)",
                  -mobilenet_bias / 4.0, 0.05, 1.0);
    return summary.finish();
}

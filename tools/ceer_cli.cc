/**
 * @file
 * `ceer` — command-line front end for the whole pipeline.
 *
 * Subcommands:
 *   zoo                               list the 12 zoo CNNs
 *   dot         --model M             print a Graphviz DOT of M's graph
 *   summary     --model M [--depth D] per-layer op/param/GFLOP table
 *   profile     --out profiles.csv    run the empirical study
 *   train       --profiles f --out m  fit Ceer from a profile file
 *   evaluate    --profiles f --out r  sweep every registered predictor
 *                                     over the zoo, write an accuracy
 *                                     report (docs/evaluation.md)
 *   predict     --ceer-model m --model M --gpu P3 --gpus 4
 *   recommend   --ceer-model m --model M [--objective cost|time]
 *               [--hourly-budget B] [--total-budget B] [--market]
 *               [--auto-train [--profile-iters N] [--train-models ..]]
 *   convert     --in f --out g        convert profiles/models/catalogs
 *                                     between CSV/text and CBF
 *   gen-catalog --count N --out f     emit a synthetic instance fleet
 *   serve       --ceer-model m --port P   run ceerd, the persistent
 *                                     recommendation server
 *   loadgen     --port P              replay recommend traffic against
 *                                     a running ceerd
 *
 * Every subcommand accepts --help, --metrics-out <file> and
 * --trace-out <file>; the latter two turn the observability layer on
 * for the run and write the metrics JSON snapshot / Chrome-trace span
 * timeline on exit (see docs/observability.md).
 *
 * Profiles, models and catalogs each have two on-disk dialects: the
 * text/CSV interchange form and the CBF binary form
 * (docs/file_formats.md). Every loader sniffs the magic bytes, so any
 * flag taking a file accepts either; writers pick by the output
 * file's extension (.cbf means CBF).
 */

#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <thread>

#include "baselines/baselines.h"
#include "baselines/evaluate.h"
#include "baselines/predictor.h"
#include "cloud/instances.h"
#include "core/predictor.h"
#include "io/cbf.h"
#include "core/recommender.h"
#include "core/trainer.h"
#include "graph/summary.h"
#include "hw/op_cost.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "profile/profiler.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace ceer;

/** True when @p path should be written in the CBF binary dialect. */
bool
wantsCbf(const std::string &path)
{
    return util::endsWith(path, ".cbf");
}

/** Declares the shared observability flags on a subcommand. */
void
defineObsFlags(util::Flags &flags)
{
    flags.defineString("metrics-out", "",
                       "write a metrics JSON snapshot here (enables "
                       "observability for the run)");
    flags.defineString("trace-out", "",
                       "write a Chrome-trace JSON of recorded spans "
                       "here (enables observability for the run)");
}

/** Turns recording on before any work when an artifact was asked for. */
void
applyObsFlags(const util::Flags &flags)
{
    if (!flags.getString("metrics-out").empty() ||
        !flags.getString("trace-out").empty())
        obs::setEnabled(true);
}

/** Writes the requested observability artifacts at end of command. */
void
flushObsArtifacts(const util::Flags &flags)
{
    std::string error;
    const std::string metrics = flags.getString("metrics-out");
    if (!metrics.empty() && !obs::tryWriteMetricsFile(metrics, &error))
        util::fatal(error);
    const std::string trace = flags.getString("trace-out");
    if (!trace.empty() &&
        !obs::TraceSink::instance().tryWriteFile(trace, &error))
        util::fatal(error);
}

/** Comma-separated model names, or the training set when empty. */
std::vector<std::string>
modelListOrTrainingSet(const std::string &csv)
{
    std::vector<std::string> names = models::trainingSetNames();
    if (csv.empty())
        return names;
    names.clear();
    for (const auto &name : util::split(csv, ','))
        if (!name.empty())
            names.push_back(util::trim(name));
    return names;
}

int
cmdZoo(int argc, char **argv)
{
    util::Flags flags;
    defineObsFlags(flags);
    flags.parse(argc, argv);
    applyObsFlags(flags);
    util::TablePrinter table({"model", "set", "input", "params (M)",
                              "graph ops"});
    for (const std::string &name : models::allModelNames()) {
        const graph::Graph g = models::buildModel(name, 32);
        const auto &test = models::testSetNames();
        const bool is_test =
            std::find(test.begin(), test.end(), name) != test.end();
        table.addRow({name, is_test ? "test" : "train",
                      util::format("%dx%d",
                                   models::modelInputSize(name),
                                   models::modelInputSize(name)),
                      util::format("%.1f",
                                   g.totalParameters() / 1e6),
                      std::to_string(g.size())});
    }
    table.print(std::cout);
    std::cout << "extras (outside the paper's zoo): "
                 "transformer_encoder, lstm_classifier, mobilenet_v1\n";
    flushObsArtifacts(flags);
    return 0;
}

int
cmdSummary(int argc, char **argv)
{
    util::Flags flags;
    flags.defineString("model", "inception_v1", "zoo model");
    flags.defineInt("batch", 32, "per-GPU batch size");
    flags.defineInt("depth", 1, "layer-name depth for grouping");
    defineObsFlags(flags);
    flags.parse(argc, argv);
    applyObsFlags(flags);
    const graph::Graph g = models::buildModel(
        flags.getString("model"), flags.getInt("batch"));
    const graph::ModelSummary summary = graph::summarize(
        g, flags.getIntAs<int>("depth"),
        [](const graph::Node &node) { return hw::opCost(node).flops; });
    summary.print(std::cout);
    flushObsArtifacts(flags);
    return 0;
}

int
cmdDot(int argc, char **argv)
{
    util::Flags flags;
    flags.defineString("model", "inception_v1", "zoo model");
    flags.defineInt("batch", 32, "per-GPU batch size");
    defineObsFlags(flags);
    flags.parse(argc, argv);
    applyObsFlags(flags);
    const graph::Graph g =
        models::buildModel(flags.getString("model"), flags.getInt("batch"));
    std::cout << g.toDot();
    flushObsArtifacts(flags);
    return 0;
}

int
cmdProfile(int argc, char **argv)
{
    util::Flags flags;
    flags.defineInt("iters", 200, "profiling iterations per run");
    flags.defineInt("batch", 32, "per-GPU batch size");
    flags.defineInt("seed", 42, "base RNG seed");
    flags.defineInt("threads", 0,
                    "profiling worker threads (0 = one per hardware "
                    "thread)");
    flags.defineString("models", "",
                       "comma-separated CNNs (default: training set)");
    flags.defineString("out", "profiles.csv",
                       "output path (.cbf writes binary CBF, anything "
                       "else CSV)");
    defineObsFlags(flags);
    flags.parse(argc, argv);
    applyObsFlags(flags);

    const std::vector<std::string> names =
        modelListOrTrainingSet(flags.getString("models"));
    profile::CollectOptions options;
    options.iterations = flags.getIntAs<int>("iters");
    options.batch = flags.getInt("batch");
    options.seed = static_cast<std::uint64_t>(flags.getInt("seed"));
    options.threads = flags.getIntAs<int>("threads");
    const profile::ProfileDataset dataset =
        profile::collectProfiles(names, options);

    std::ofstream out(flags.getString("out"), std::ios::binary);
    if (!out)
        util::fatal("cannot open " + flags.getString("out"));
    if (wantsCbf(flags.getString("out")))
        dataset.saveCbf(out);
    else
        dataset.saveCsv(out);
    std::cout << "wrote " << dataset.ops().size() << " op rows and "
              << dataset.iterations().size() << " iter rows to "
              << flags.getString("out") << "\n";
    flushObsArtifacts(flags);
    return 0;
}

int
cmdTrain(int argc, char **argv)
{
    util::Flags flags;
    flags.defineString("profiles", "profiles.csv",
                       "input profile file (CSV or CBF, sniffed)");
    flags.defineString("out", "ceer_model.txt",
                       "output model file (.cbf writes binary CBF, "
                       "anything else text)");
    flags.defineInt("threads", 1,
                    "regression-fit worker threads (1 = serial, 0 = "
                    "one per hardware thread); the trained model is "
                    "byte-identical at any count");
    defineObsFlags(flags);
    flags.parse(argc, argv);
    applyObsFlags(flags);

    const profile::ProfileDataset dataset =
        profile::ProfileDataset::loadFile(flags.getString("profiles"));
    core::TrainOptions train_options;
    train_options.threads = flags.getIntAs<int>("threads");
    const core::CeerModel model = core::trainCeer(dataset,
                                                  train_options);

    std::ofstream out(flags.getString("out"), std::ios::binary);
    if (!out)
        util::fatal("cannot open " + flags.getString("out"));
    if (wantsCbf(flags.getString("out")))
        model.saveCbf(out);
    else
        model.save(out);
    const auto [lo, hi] = model.opModelR2Range();
    std::cout << "trained on " << dataset.ops().size()
              << " op rows: " << model.heavyOps.size()
              << " heavy op types, R^2 "
              << util::format("[%.2f, %.2f]", lo, hi) << " -> "
              << flags.getString("out") << "\n";
    flushObsArtifacts(flags);
    return 0;
}

int
cmdEvaluate(int argc, char **argv)
{
    util::Flags flags;
    flags.defineString("profiles", "profiles.csv",
                       "training profile file (CSV or CBF, sniffed)");
    flags.defineString("predictors", "",
                       "comma-separated predictor names (default: all "
                       "registered engines)");
    flags.defineString("models", "",
                       "comma-separated CNNs to evaluate (default: the "
                       "whole zoo)");
    flags.defineString("ks", "1,2,4,8",
                       "comma-separated data-parallel widths");
    flags.defineInt("batch", 32, "per-GPU batch size");
    flags.defineInt("samples", 1'200'000,
                    "dataset size D for the recommendation-agreement "
                    "metric");
    flags.defineInt("eval-iters", 60,
                    "simulated iterations behind each observed cell");
    flags.defineInt("seed", 42, "base RNG seed of the observed runs");
    flags.defineInt("threads", 1,
                    "sweep worker threads (1 = serial, 0 = one per "
                    "hardware thread); the report is byte-identical "
                    "at any count");
    flags.defineString("out", "eval_report.csv",
                       "report path (.cbf writes binary CBF, anything "
                       "else CSV)");
    defineObsFlags(flags);
    flags.parse(argc, argv);
    applyObsFlags(flags);

    const profile::ProfileDataset dataset =
        profile::ProfileDataset::loadFile(flags.getString("profiles"));

    std::vector<std::string> predictor_names;
    for (const auto &name :
         util::split(flags.getString("predictors"), ','))
        if (!name.empty())
            predictor_names.push_back(util::trim(name));
    const std::vector<std::unique_ptr<baselines::Predictor>>
        predictors = baselines::makePredictors(predictor_names);

    baselines::EvalOptions options;
    options.models = flags.getString("models").empty()
                         ? models::allModelNames()
                         : modelListOrTrainingSet(
                               flags.getString("models"));
    options.ks.clear();
    for (const auto &field : util::split(flags.getString("ks"), ',')) {
        if (field.empty())
            continue;
        const util::ParseResult<std::int64_t> k =
            util::parseInt64(util::trim(field));
        if (!k)
            util::fatal("evaluate: bad --ks value '" + field + "'");
        options.ks.push_back(static_cast<int>(k.value));
    }
    options.batch = flags.getInt("batch");
    options.datasetSamples = flags.getInt("samples");
    options.evalIterations = flags.getIntAs<int>("eval-iters");
    options.seed = static_cast<std::uint64_t>(flags.getInt("seed"));
    options.threads = flags.getIntAs<int>("threads");

    const baselines::EvalReport report =
        baselines::runEvaluation(dataset, predictors, options);

    std::ofstream out(flags.getString("out"), std::ios::binary);
    if (!out)
        util::fatal("cannot open " + flags.getString("out"));
    if (wantsCbf(flags.getString("out")))
        report.saveCbf(out);
    else
        report.saveCsv(out);

    util::TablePrinter table({"predictor", "MAPE (%)", "RMSE (ms)",
                              "rank corr", "agreement"});
    for (const baselines::EvalSummaryRow &row : report.summary) {
        table.addRow({row.predictor,
                      util::format("%.2f", row.mapePct),
                      util::format("%.3f", row.rmseUs / 1000.0),
                      util::format("%.3f", row.meanSpearman),
                      util::format("%.0f%%",
                                   row.agreementRate * 100.0)});
    }
    table.print(std::cout);
    std::cout << "wrote " << report.cells.size() << " cells over "
              << report.summary.size() << " predictors to "
              << flags.getString("out") << "\n";
    flushObsArtifacts(flags);
    return 0;
}

int
cmdPredict(int argc, char **argv)
{
    util::Flags flags;
    flags.defineString("ceer-model", "ceer_model.txt",
                       "model file (text or CBF, sniffed)");
    flags.defineString("model", "resnet_101", "zoo CNN to predict");
    flags.defineString("gpu", "P3", "GPU model or family name");
    flags.defineInt("gpus", 1, "data-parallel width");
    flags.defineInt("batch", 32, "per-GPU batch size");
    flags.defineInt("samples", 1200000, "dataset size");
    defineObsFlags(flags);
    flags.parse(argc, argv);
    applyObsFlags(flags);

    hw::GpuModel gpu;
    if (!hw::gpuModelFromName(flags.getString("gpu"), gpu))
        util::fatal("unknown GPU '" + flags.getString("gpu") + "'");
    const core::CeerPredictor predictor(
        core::CeerModel::loadFile(flags.getString("ceer-model")));
    const graph::Graph g = models::buildModel(flags.getString("model"),
                                              flags.getInt("batch"));
    const core::TrainingPrediction prediction =
        predictor.predictTraining(predictor.compile(g), gpu,
                                  flags.getIntAs<int>("gpus"),
                                  flags.getInt("samples"),
                                  flags.getInt("batch"));
    std::cout << flags.getString("model") << " on "
              << flags.getInt("gpus") << "x " << hw::gpuModelName(gpu)
              << ": " << util::humanMicros(prediction.iterationUs)
              << "/iteration, " << prediction.iterations
              << " iterations, "
              << util::format("%.2fh", prediction.hours) << " total\n";
    flushObsArtifacts(flags);
    return 0;
}

int
cmdRecommend(int argc, char **argv)
{
    util::Flags flags;
    flags.defineString("ceer-model", "ceer_model.txt",
                       "model file (text or CBF, sniffed)");
    flags.defineString("model", "resnet_101", "zoo CNN to place");
    flags.defineString("objective", "cost", "minimize 'cost' or 'time'");
    flags.defineDouble("hourly-budget", 1e18, "max hourly price (USD)");
    flags.defineDouble("total-budget", 1e18, "max total spend (USD)");
    flags.defineBool("market", false, "use market GPU prices");
    flags.defineString("catalog", "",
                       "custom instance catalog, CSV "
                       "(name,gpu,gpus,hourly_usd) or CBF, sniffed; "
                       "overrides --market");
    flags.defineInt("batch", 32, "per-GPU batch size");
    flags.defineInt("samples", 1200000, "dataset size");
    flags.defineInt("threads", 1,
                    "candidate-sweep worker threads (1 = serial, 0 = "
                    "automatic: serial below 1024 candidates, else one "
                    "per hardware thread); the recommendation is "
                    "byte-identical at any count");
    flags.defineBool("auto-train", false,
                     "profile and train in-process instead of loading "
                     "--ceer-model (exercises the whole pipeline; "
                     "pair with --metrics-out to observe it)");
    flags.defineInt("profile-iters", 25,
                    "profiling iterations per run with --auto-train");
    flags.defineString("train-models", "",
                       "comma-separated CNNs to profile with "
                       "--auto-train (default: training set)");
    defineObsFlags(flags);
    flags.parse(argc, argv);
    applyObsFlags(flags);

    const int threads = flags.getIntAs<int>("threads");
    const core::CeerPredictor predictor = [&] {
        if (!flags.getBool("auto-train"))
            return core::CeerPredictor(
                core::CeerModel::loadFile(flags.getString("ceer-model")));
        // End-to-end path: run the empirical study and fit Ceer right
        // here, so one command exercises (and can observe) profiler,
        // trainer, predictor and recommender together.
        profile::CollectOptions collect;
        collect.iterations = flags.getIntAs<int>("profile-iters");
        collect.batch = flags.getInt("batch");
        collect.threads = threads;
        const profile::ProfileDataset dataset = profile::collectProfiles(
            modelListOrTrainingSet(flags.getString("train-models")),
            collect);
        core::TrainOptions train_options;
        train_options.threads = threads;
        return core::CeerPredictor(
            core::trainCeer(dataset, train_options));
    }();
    const graph::Graph g = models::buildModel(flags.getString("model"),
                                              flags.getInt("batch"));
    cloud::InstanceCatalog catalog =
        flags.getBool("market") ? cloud::InstanceCatalog::marketPriced()
                                : cloud::InstanceCatalog::awsOnDemand();
    if (!flags.getString("catalog").empty())
        catalog =
            cloud::InstanceCatalog::fromFile(flags.getString("catalog"));

    core::WorkloadSpec workload{&g, flags.getInt("samples"),
                                flags.getInt("batch")};
    core::Constraints constraints;
    constraints.hourlyBudgetUsd = flags.getDouble("hourly-budget");
    constraints.totalBudgetUsd = flags.getDouble("total-budget");
    const core::Objective objective =
        flags.getString("objective") == "time"
            ? core::Objective::MinTrainingTime
            : core::Objective::MinCost;
    const core::Recommendation recommendation =
        core::recommend(predictor, workload, catalog.instances(),
                        objective, constraints, threads);

    util::TablePrinter table({"instance", "$/hr", "pred time",
                              "pred cost", "feasible"});
    for (const auto &evaluation : recommendation.evaluations) {
        table.addRow({evaluation.instance.name,
                      util::format("%.3f",
                                   evaluation.instance.hourlyUsd),
                      util::format("%.2fh",
                                   evaluation.prediction.hours),
                      util::format("$%.2f", evaluation.costUsd),
                      evaluation.feasible() ? "yes" : "no"});
    }
    table.print(std::cout);
    flushObsArtifacts(flags);
    if (recommendation.bestIndex < 0) {
        std::cout << "no instance satisfies the constraints\n";
        return 1;
    }
    const auto &best = recommendation.best();
    std::cout << "recommended: " << best.instance.name << " ("
              << util::format("%.2fh", best.prediction.hours) << ", "
              << util::format("$%.2f", best.costUsd) << ")\n";
    return 0;
}

/** What container a profile/model/catalog file holds. */
enum class FileKind { Profiles, Model, Catalog };

const char *
fileKindName(FileKind kind)
{
    switch (kind) {
    case FileKind::Profiles:
        return "profiles";
    case FileKind::Model:
        return "model";
    case FileKind::Catalog:
        return "catalog";
    }
    util::panic("unreachable");
}

/**
 * Detects what @p path holds: CBF files carry their container in the
 * "schema" column; text files are classified by their first line
 * (model documents start with "ceer_model", the two CSV dialects by
 * their headers).
 */
FileKind
detectFileKind(const std::string &path)
{
    io::FileFormat format;
    std::string error;
    if (!io::sniffFile(path, &format, &error))
        util::fatal("convert: " + error);
    if (format == io::FileFormat::Cbf) {
        io::CbfFile file;
        if (!io::tryOpenCbf(path, &file, &error))
            util::fatal("convert: " + path + ": " + error);
        const char *schema = nullptr;
        std::size_t schema_size = 0;
        if (!file.bytes("schema", &schema, &schema_size, &error))
            util::fatal("convert: " + path + ": " + error);
        const std::string name(schema, schema_size);
        if (name == "ceer.profiles.v1")
            return FileKind::Profiles;
        if (name == "ceer.model.v1")
            return FileKind::Model;
        if (name == "ceer.catalog.v1")
            return FileKind::Catalog;
        util::fatal("convert: " + path + ": unknown schema '" + name +
                    "'");
    }
    std::ifstream in(path);
    if (!in)
        util::fatal("convert: cannot open '" + path + "'");
    std::string first_line;
    std::getline(in, first_line);
    if (util::startsWith(first_line, "ceer_model"))
        return FileKind::Model;
    if (util::startsWith(first_line, "kind,model,gpu"))
        return FileKind::Profiles;
    if (util::startsWith(first_line, "name,gpu,gpus"))
        return FileKind::Catalog;
    util::fatal("convert: cannot classify '" + path +
                "' (first line '" + first_line +
                "' matches no known dialect); pass --kind");
}

int
cmdConvert(int argc, char **argv)
{
    util::Flags flags;
    flags.defineString("in", "", "input file (any dialect, sniffed)");
    flags.defineString("out", "", "output file");
    flags.defineString("kind", "auto",
                       "container kind: auto, profiles, model or "
                       "catalog (auto reads the CBF schema or the "
                       "text file's first line)");
    flags.defineString("to", "auto",
                       "target dialect: auto, cbf or text (auto flips "
                       "the input's dialect; text means CSV for "
                       "profiles and catalogs)");
    defineObsFlags(flags);
    flags.parse(argc, argv);
    applyObsFlags(flags);

    const std::string in_path = flags.getString("in");
    const std::string out_path = flags.getString("out");
    if (in_path.empty() || out_path.empty())
        util::fatal("convert: --in and --out are required");

    io::FileFormat in_format;
    std::string error;
    if (!io::sniffFile(in_path, &in_format, &error))
        util::fatal("convert: " + error);

    FileKind kind;
    const std::string kind_flag = flags.getString("kind");
    if (kind_flag == "auto")
        kind = detectFileKind(in_path);
    else if (kind_flag == "profiles")
        kind = FileKind::Profiles;
    else if (kind_flag == "model")
        kind = FileKind::Model;
    else if (kind_flag == "catalog")
        kind = FileKind::Catalog;
    else
        util::fatal("convert: unknown --kind '" + kind_flag + "'");

    const std::string to = flags.getString("to");
    bool to_cbf;
    if (to == "auto")
        to_cbf = in_format != io::FileFormat::Cbf;
    else if (to == "cbf")
        to_cbf = true;
    else if (to == "text" || to == "csv")
        to_cbf = false;
    else
        util::fatal("convert: unknown --to '" + to + "'");

    std::ofstream out(out_path, std::ios::binary);
    if (!out)
        util::fatal("convert: cannot open '" + out_path + "'");
    std::size_t rows = 0;
    switch (kind) {
    case FileKind::Profiles: {
        const profile::ProfileDataset dataset =
            profile::ProfileDataset::loadFile(in_path);
        to_cbf ? dataset.saveCbf(out) : dataset.saveCsv(out);
        rows = dataset.ops().size() + dataset.iterations().size();
        break;
    }
    case FileKind::Model: {
        const core::CeerModel model = core::CeerModel::loadFile(in_path);
        to_cbf ? model.saveCbf(out) : model.save(out);
        rows = model.opModels.size();
        break;
    }
    case FileKind::Catalog: {
        const cloud::InstanceCatalog catalog =
            cloud::InstanceCatalog::fromFile(in_path);
        to_cbf ? catalog.saveCbf(out) : catalog.saveCsv(out);
        rows = catalog.instances().size();
        break;
    }
    }
    out.close();
    if (!out.good())
        util::fatal("convert: write to '" + out_path + "' failed");
    std::cout << "converted " << fileKindName(kind) << " (" << rows
              << " rows) " << in_path << " -> " << out_path << " ["
              << (to_cbf ? "cbf" : "text") << "]\n";
    flushObsArtifacts(flags);
    return 0;
}

int
cmdGenCatalog(int argc, char **argv)
{
    util::Flags flags;
    flags.defineInt("count", 5000, "instance types to generate");
    flags.defineInt("seed", 42, "RNG seed");
    flags.defineString("out", "fleet_catalog.cbf",
                       "output path (.cbf writes binary CBF, anything "
                       "else CSV)");
    defineObsFlags(flags);
    flags.parse(argc, argv);
    applyObsFlags(flags);

    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::syntheticFleet(
            flags.getIntAs<std::size_t>("count"),
            static_cast<std::uint64_t>(flags.getInt("seed")));
    std::ofstream out(flags.getString("out"), std::ios::binary);
    if (!out)
        util::fatal("cannot open " + flags.getString("out"));
    if (wantsCbf(flags.getString("out")))
        catalog.saveCbf(out);
    else
        catalog.saveCsv(out);
    out.close();
    if (!out.good())
        util::fatal("write to " + flags.getString("out") + " failed");
    std::cout << "wrote " << catalog.instances().size()
              << " instance types to " << flags.getString("out") << "\n";
    flushObsArtifacts(flags);
    return 0;
}

/** Set by SIGINT/SIGTERM; polled by cmdServe's wait loop. */
volatile std::sig_atomic_t g_stop_requested = 0;

void
handleStopSignal(int)
{
    g_stop_requested = 1;
}

int
cmdServe(int argc, char **argv)
{
    util::Flags flags;
    flags.defineString("ceer-model", "ceer_model.txt",
                       "model file (text or CBF, sniffed)");
    flags.defineString("catalog", "",
                       "custom instance catalog (CSV or CBF, "
                       "sniffed); overrides --market");
    flags.defineBool("market", false, "use market GPU prices");
    flags.defineString("host", "127.0.0.1", "bind address");
    flags.defineInt("port", 0, "TCP port (0 = kernel-assigned)");
    flags.defineString("port-file", "",
                       "write the bound port here once listening "
                       "(for scripts that pass --port 0)");
    flags.defineInt("queue-depth", 64,
                    "admitted-request bound; beyond it clients get a "
                    "typed 'overloaded' error");
    flags.defineInt("max-payload", 1 << 20,
                    "largest accepted frame payload in bytes");
    flags.defineInt("read-timeout-ms", 5000,
                    "disconnect clients stalled mid-frame after this "
                    "long (<= 0 disables)");
    flags.defineInt("reactors", 1,
                    "reactor threads (connections are dealt to them "
                    "round-robin; one per core is typical)");
    flags.defineInt("plan-cache", 256,
                    "shared plan-cache capacity in entries");
    defineObsFlags(flags);
    flags.parse(argc, argv);
    applyObsFlags(flags);

    // The serve library sends with MSG_NOSIGNAL, but stdout may be a
    // pipe too; a vanished reader must not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    serve::ServerOptions options;
    options.host = flags.getString("host");
    options.port = flags.getIntAs<int>("port");
    options.maxQueueDepth = flags.getIntAs<std::size_t>("queue-depth");
    options.maxPayloadBytes = flags.getIntAs<std::size_t>("max-payload");
    options.readTimeoutMs = flags.getIntAs<int>("read-timeout-ms");
    options.reactors = flags.getIntAs<int>("reactors");
    options.planCacheCapacity = flags.getIntAs<std::size_t>("plan-cache");

    cloud::InstanceCatalog catalog =
        flags.getBool("market") ? cloud::InstanceCatalog::marketPriced()
                                : cloud::InstanceCatalog::awsOnDemand();
    if (!flags.getString("catalog").empty())
        catalog =
            cloud::InstanceCatalog::fromFile(flags.getString("catalog"));

    serve::Server server(
        core::CeerModel::loadFile(flags.getString("ceer-model")),
        std::move(catalog), options);
    std::string error;
    if (!server.tryStart(&error))
        util::fatal("serve: " + error);

    const std::string port_file = flags.getString("port-file");
    if (!port_file.empty()) {
        std::ofstream out(port_file);
        if (!out)
            util::fatal("serve: cannot open '" + port_file + "'");
        out << server.port() << "\n";
        out.close();
        if (!out.good())
            util::fatal("serve: write to '" + port_file + "' failed");
    }
    std::cout << "ceerd listening on " << options.host << ":"
              << server.port() << " ("
              << (options.reactors < 1 ? 1 : options.reactors)
              << (options.reactors > 1 ? " reactors" : " reactor")
              << ")\n"
              << std::flush;

    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);
    while (!g_stop_requested) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::cout << "ceerd: stopping (draining in-flight requests)\n";
    server.stop();
    std::cout << "ceerd: stopped cleanly\n";
    flushObsArtifacts(flags);
    return 0;
}

int
cmdLoadgen(int argc, char **argv)
{
    util::Flags flags;
    flags.defineString("host", "127.0.0.1", "server address");
    flags.defineInt("port", 0, "server port (required)");
    flags.defineInt("connections", 2, "concurrent connections");
    flags.defineDouble("seconds", 2.0, "run duration");
    flags.defineDouble("qps", 0.0,
                       "total offered QPS across connections "
                       "(<= 0 = closed-loop maximum)");
    flags.defineString("models", "",
                       "comma-separated CNNs to request "
                       "(default: the full 12-CNN zoo)");
    flags.defineInt("batch", 32, "per-GPU batch size");
    flags.defineInt("samples", 1200000, "dataset size");
    flags.defineString("objective", "cost",
                       "minimize 'cost' or 'time'");
    flags.defineDouble("hourly-budget", 1e18,
                       "max hourly price (USD)");
    flags.defineDouble("total-budget", 1e18, "max total spend (USD)");
    flags.defineInt("timeout-ms", 30000, "per-reply read timeout");
    flags.defineInt("warmup", -1,
                    "warm-up requests before the timed phase "
                    "(-1 = one per mix entry, 0 = disabled); "
                    "excluded from percentiles");
    flags.defineString("out", "",
                       "write a JSON results document here");
    defineObsFlags(flags);
    flags.parse(argc, argv);
    applyObsFlags(flags);

    std::signal(SIGPIPE, SIG_IGN);
    if (flags.getInt("port") <= 0)
        util::fatal("loadgen: --port is required");

    serve::LoadgenOptions options;
    options.host = flags.getString("host");
    options.port = flags.getIntAs<int>("port");
    options.connections = flags.getIntAs<int>("connections");
    options.seconds = flags.getDouble("seconds");
    options.targetQps = flags.getDouble("qps");
    options.timeoutMs = flags.getIntAs<int>("timeout-ms");
    options.warmupRequests = flags.getIntAs<int>("warmup");

    std::vector<std::string> names = models::allModelNames();
    if (!flags.getString("models").empty()) {
        names.clear();
        for (const auto &name :
             util::split(flags.getString("models"), ','))
            if (!name.empty())
                names.push_back(util::trim(name));
    }
    for (const std::string &name : names) {
        serve::RecommendRequest request;
        request.model = name;
        request.batch = flags.getInt("batch");
        request.datasetSamples = flags.getInt("samples");
        request.objective = flags.getString("objective");
        request.hourlyBudgetUsd = flags.getDouble("hourly-budget");
        request.totalBudgetUsd = flags.getDouble("total-budget");
        options.requests.push_back(std::move(request));
    }

    serve::LoadgenResult result;
    std::string error;
    if (!serve::runLoadgen(options, &result, &error))
        util::fatal("loadgen: " + error);

    // A small sample cannot resolve the far tail: n*(1-q) < 1 means
    // the nearest-rank quantile just repeats the maximum, so those
    // rows print n/a (and null in the JSON) instead of a fake number.
    const std::size_t samples = result.latenciesUs.size();
    const auto quantile_cell = [&](double q, double value) {
        return serve::percentileResolvable(samples, q)
                   ? util::format("%.0f us", value)
                   : std::string("n/a (sample too small)");
    };
    util::TablePrinter table({"metric", "value"});
    table.addRow({"warmup", std::to_string(result.warmupRequests)});
    table.addRow({"sent", std::to_string(result.sent)});
    table.addRow({"succeeded", std::to_string(result.succeeded)});
    table.addRow({"overloaded", std::to_string(result.overloaded)});
    table.addRow({"server errors",
                  std::to_string(result.serverErrors)});
    table.addRow({"transport errors",
                  std::to_string(result.transportErrors)});
    table.addRow({"elapsed",
                  util::format("%.2fs", result.elapsedSeconds)});
    table.addRow({"throughput",
                  util::format("%.1f req/s", result.achievedQps)});
    table.addRow({"p50", quantile_cell(0.50, result.p50Us)});
    table.addRow({"p90", quantile_cell(0.90, result.p90Us)});
    table.addRow({"p99", quantile_cell(0.99, result.p99Us)});
    table.addRow({"p99.9", quantile_cell(0.999, result.p999Us)});
    table.addRow({"max", util::format("%.0f us", result.maxUs)});
    table.print(std::cout);

    const std::string out_path = flags.getString("out");
    if (!out_path.empty()) {
        const auto quantile_json = [&](double q, double value) {
            return serve::percentileResolvable(samples, q)
                       ? util::format("%.3f", value)
                       : std::string("null");
        };
        std::ofstream out(out_path);
        if (!out)
            util::fatal("loadgen: cannot open '" + out_path + "'");
        out << "{\n"
            << "  \"bench\": \"loadgen\",\n"
            << util::format("  \"sent\": %lld,\n",
                            static_cast<long long>(result.sent))
            << util::format("  \"succeeded\": %lld,\n",
                            static_cast<long long>(result.succeeded))
            << util::format("  \"overloaded\": %lld,\n",
                            static_cast<long long>(result.overloaded))
            << util::format(
                   "  \"server_errors\": %lld,\n",
                   static_cast<long long>(result.serverErrors))
            << util::format(
                   "  \"transport_errors\": %lld,\n",
                   static_cast<long long>(result.transportErrors))
            << util::format("  \"elapsed_seconds\": %.6f,\n",
                            result.elapsedSeconds)
            << util::format("  \"throughput_qps\": %.3f,\n",
                            result.achievedQps)
            << util::format(
                   "  \"warmup_requests\": %lld,\n",
                   static_cast<long long>(result.warmupRequests))
            << util::format("  \"warmup_mean_us\": %.3f,\n",
                            result.warmupMeanUs)
            << util::format("  \"warmup_max_us\": %.3f,\n",
                            result.warmupMaxUs)
            << "  \"p50_us\": " << quantile_json(0.50, result.p50Us)
            << ",\n"
            << "  \"p90_us\": " << quantile_json(0.90, result.p90Us)
            << ",\n"
            << "  \"p99_us\": " << quantile_json(0.99, result.p99Us)
            << ",\n"
            << "  \"p999_us\": "
            << quantile_json(0.999, result.p999Us) << ",\n"
            << util::format("  \"mean_us\": %.3f,\n", result.meanUs)
            << util::format("  \"max_us\": %.3f\n", result.maxUs)
            << "}\n";
        out.close();
        if (!out.good())
            util::fatal("loadgen: write to '" + out_path +
                        "' failed");
    }
    flushObsArtifacts(flags);
    return result.succeeded > 0 ? 0 : 1;
}

void
usage()
{
    std::cout <<
        "usage: ceer <command> [flags]\n"
        "commands:\n"
        "  zoo          list the 12 zoo CNNs\n"
        "  dot          print a CNN's graph as Graphviz DOT\n"
        "  summary      per-layer table (ops, params, GFLOPs)\n"
        "  profile      run the empirical study, write profiles\n"
        "  train        fit a Ceer model from a profile file\n"
        "  evaluate     sweep every registered predictor over the\n"
        "               model zoo and write an accuracy report\n"
        "  predict      predict training time for a CNN on an instance\n"
        "  recommend    pick the optimal instance under constraints\n"
        "  convert      convert profiles/models/catalogs between the\n"
        "               text/CSV and CBF binary dialects\n"
        "  gen-catalog  emit a synthetic instance fleet (CSV or CBF)\n"
        "  serve        run ceerd, the persistent recommendation\n"
        "               server (framed-binary protocol over TCP)\n"
        "  loadgen      replay recommend traffic against a running\n"
        "               ceerd and report throughput/latency\n"
        "every command accepts --metrics-out and --trace-out\n"
        "run `ceer <command> --help` for the command's flags\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string command = argv[1];
    // Shift argv so each subcommand parses its own flags.
    int sub_argc = argc - 1;
    char **sub_argv = argv + 1;
    if (command == "zoo")
        return cmdZoo(sub_argc, sub_argv);
    if (command == "dot")
        return cmdDot(sub_argc, sub_argv);
    if (command == "summary")
        return cmdSummary(sub_argc, sub_argv);
    if (command == "profile")
        return cmdProfile(sub_argc, sub_argv);
    if (command == "train")
        return cmdTrain(sub_argc, sub_argv);
    if (command == "evaluate")
        return cmdEvaluate(sub_argc, sub_argv);
    if (command == "predict")
        return cmdPredict(sub_argc, sub_argv);
    if (command == "recommend")
        return cmdRecommend(sub_argc, sub_argv);
    if (command == "convert")
        return cmdConvert(sub_argc, sub_argv);
    if (command == "gen-catalog")
        return cmdGenCatalog(sub_argc, sub_argv);
    if (command == "serve")
        return cmdServe(sub_argc, sub_argv);
    if (command == "loadgen")
        return cmdLoadgen(sub_argc, sub_argv);
    if (command == "--help" || command == "help") {
        usage();
        return 0;
    }
    std::cerr << "unknown command '" << command << "'\n";
    usage();
    return 1;
}

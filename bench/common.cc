#include "bench/common.h"

#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/trainer.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "util/logging.h"
#include "util/strings.h"

namespace ceer {
namespace bench {

using graph::OpType;

namespace {
/** The run's --metrics-out destination ("" = none). */
std::string g_metrics_out;

/**
 * Registers @p path as the run's --metrics-out destination and turns
 * the observability layer on when it is nonempty.
 */
void
setMetricsOut(const std::string &path)
{
    g_metrics_out = path;
    if (!g_metrics_out.empty())
        obs::setEnabled(true);
}

/**
 * Writes the metrics snapshot to the registered --metrics-out path
 * (no-op when none was set; fatal when the file cannot be written).
 */
void
flushBenchMetrics()
{
    if (g_metrics_out.empty())
        return;
    std::string error;
    if (!obs::tryWriteMetricsFile(g_metrics_out, &error))
        util::fatal(error);
    std::cout << "wrote metrics snapshot to " << g_metrics_out << "\n";
}
} // namespace

void
parseMicroFlags(util::Flags &flags, const std::string &defaultOut,
                int argc, char **argv)
{
    flags.defineString("out", defaultOut,
                       "machine-readable results ('' disables)");
    flags.defineString("metrics-out", "",
                       "write a metrics JSON snapshot here (enables "
                       "observability for the run)");
    flags.parse(argc, argv);
    setMetricsOut(flags.getString("metrics-out"));
}

BenchConfig
parseBenchFlags(int argc, char **argv, util::Flags *extra)
{
    util::Flags own;
    util::Flags &flags = extra ? *extra : own;
    flags.defineInt("iters", 200,
                    "profiling iterations per (CNN, GPU) run "
                    "(paper: 1000)");
    flags.defineInt("eval-iters", 120,
                    "iterations for observed measurements");
    flags.defineInt("batch", kDefaultBatch, "per-GPU batch size");
    flags.defineInt("seed", 42, "base RNG seed");
    flags.defineInt("threads", 0,
                    "profiling worker threads (0 = one per hardware "
                    "thread)");
    flags.defineString("metrics-out", "",
                       "write a metrics JSON snapshot here (enables "
                       "observability for the run)");
    flags.parse(argc, argv);

    BenchConfig config;
    config.iterations = flags.getIntAs<int>("iters");
    config.evalIterations = flags.getIntAs<int>("eval-iters");
    config.batch = flags.getInt("batch");
    config.seed = static_cast<std::uint64_t>(flags.getInt("seed"));
    config.threads = flags.getIntAs<int>("threads");
    config.metricsOut = flags.getString("metrics-out");
    setMetricsOut(config.metricsOut);
    return config;
}

profile::ProfileDataset
collectTrainingProfiles(const BenchConfig &config, bool multiGpu)
{
    profile::CollectOptions options;
    options.batch = config.batch;
    options.iterations = config.iterations;
    options.seed = config.seed;
    options.multiGpuRuns = multiGpu;
    options.threads = config.threads;
    return profile::collectProfiles(models::trainingSetNames(), options);
}

TrainedCeer
trainOnPaperTrainingSet(const BenchConfig &config)
{
    TrainedCeer trained;
    trained.dataset = collectTrainingProfiles(config, true);
    trained.model = core::trainCeer(trained.dataset);
    return trained;
}

const std::vector<OpType> &
paperHeavyOps()
{
    static const std::vector<OpType> ops = {
        OpType::Conv2D,
        OpType::Conv2DBackpropInput,
        OpType::Conv2DBackpropFilter,
        OpType::MaxPool,
        OpType::MaxPoolGrad,
        OpType::AvgPool,
        OpType::AvgPoolGrad,
        OpType::Relu,
        OpType::ReluGrad,
        OpType::BiasAdd,
        OpType::BiasAddGrad,
        OpType::AddV2,
        OpType::AddN,
        OpType::Mul,
        OpType::FusedBatchNormV3,
        OpType::FusedBatchNormGradV3,
        OpType::MatMul,
        OpType::ConcatV2,
        OpType::Transpose,
        OpType::Pad,
    };
    return ops;
}

double
observedIterationUs(const graph::Graph &g, hw::GpuModel gpu, int k,
                    const BenchConfig &config, std::uint64_t salt)
{
    sim::SimConfig sim_config;
    sim_config.gpu = gpu;
    sim_config.numGpus = k;
    sim_config.seed = config.seed ^ (0xABCDEF1234ull + salt * 7919);
    sim::TrainingSimulator simulator(g, sim_config);
    return simulator.run(config.evalIterations).iterationUs.mean();
}

namespace {
/** JSON string escaping (quotes, backslashes, control bytes). */
std::string
jsonEscape(const std::string &s)
{
    std::string escaped;
    escaped.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': escaped += "\\\""; break;
        case '\\': escaped += "\\\\"; break;
        case '\n': escaped += "\\n"; break;
        case '\t': escaped += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                escaped += util::format("\\u%04x", c);
            else
                escaped += c;
        }
    }
    return escaped;
}
} // namespace

JsonObject &
JsonObject::str(const std::string &key, const std::string &value)
{
    std::string quoted = "\"";
    quoted += jsonEscape(value);
    quoted += '"';
    fields_.push_back({key, std::move(quoted), {}, false});
    return *this;
}

JsonObject &
JsonObject::num(const std::string &key, std::int64_t value)
{
    fields_.push_back({key, std::to_string(value), {}, false});
    return *this;
}

JsonObject &
JsonObject::num(const std::string &key, double value, const char *fmt)
{
    fields_.push_back({key, util::format(fmt, value), {}, false});
    return *this;
}

JsonObject &
JsonObject::boolean(const std::string &key, bool value)
{
    fields_.push_back(
        {key, value ? std::string("true") : std::string("false"), {},
         false});
    return *this;
}

JsonObject &
JsonObject::nul(const std::string &key)
{
    fields_.push_back({key, "null", {}, false});
    return *this;
}

JsonObject &
JsonObject::object(const std::string &key, const JsonObject &value)
{
    std::ostringstream out;
    value.writeCompact(out);
    fields_.push_back({key, out.str(), {}, false});
    return *this;
}

JsonObject &
JsonObject::array(const std::string &key, std::vector<JsonObject> rows)
{
    Field field;
    field.key = key;
    field.rows = std::move(rows);
    field.isArray = true;
    fields_.push_back(std::move(field));
    return *this;
}

void
JsonObject::writeCompact(std::ostream &out) const
{
    out << "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        out << "\"" << fields_[i].key << "\": " << fields_[i].scalar
            << (i + 1 < fields_.size() ? ", " : "");
    }
    out << "}";
}

void
JsonObject::write(std::ostream &out) const
{
    out << "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        const Field &field = fields_[i];
        out << "  \"" << field.key << "\": ";
        if (field.isArray) {
            out << "[\n";
            for (std::size_t r = 0; r < field.rows.size(); ++r) {
                out << "    ";
                field.rows[r].writeCompact(out);
                out << (r + 1 < field.rows.size() ? "," : "") << "\n";
            }
            out << "  ]";
        } else {
            out << field.scalar;
        }
        out << (i + 1 < fields_.size() ? "," : "") << "\n";
    }
    out << "}\n";
}

void
addScalingFields(JsonObject &doc, unsigned hardwareThreads)
{
    doc.num("hardware_threads", hardwareThreads);
    doc.boolean("skipped_scaling", hardwareThreads < 2);
}

int
finishBench(const std::string &path, const JsonObject &doc, bool ok)
{
    if (!path.empty()) {
        std::ofstream out(path);
        if (!out) {
            std::cerr << "cannot open " << path << "\n";
            return 1;
        }
        doc.write(out);
        std::cout << "wrote " << path << "\n";
    }
    flushBenchMetrics();
    return ok ? 0 : 1;
}

std::uint64_t
bits(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

bool
recommendationsIdentical(const core::Recommendation &a,
                         const core::Recommendation &b)
{
    const auto same = [](const core::CandidateEvaluation &x,
                         const core::CandidateEvaluation &y) {
        return x.instance.name == y.instance.name &&
               x.prediction.iterations == y.prediction.iterations &&
               bits(x.prediction.iterationUs) ==
                   bits(y.prediction.iterationUs) &&
               bits(x.prediction.hours) == bits(y.prediction.hours) &&
               bits(x.costUsd) == bits(y.costUsd) &&
               x.withinHourly == y.withinHourly &&
               x.withinTotal == y.withinTotal &&
               x.fitsMemory == y.fitsMemory;
    };
    return a.bestIndex == b.bestIndex &&
           std::equal(a.evaluations.begin(), a.evaluations.end(),
                      b.evaluations.begin(), b.evaluations.end(), same);
}

unsigned
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

double
median(const std::vector<double> &sorted)
{
    const std::size_t mid = sorted.size() / 2;
    return sorted.size() % 2 == 1 ? sorted[mid]
                                  : (sorted[mid - 1] + sorted[mid]) / 2.0;
}

JsonObject
spreadJson(const std::vector<double> &sorted)
{
    JsonObject spread;
    spread.num("median", median(sorted), "%.3f")
        .num("min", sorted.front(), "%.3f")
        .num("max", sorted.back(), "%.3f");
    return spread;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

void
Trials::addTo(JsonObject &doc) const
{
    doc.num("trials", static_cast<std::int64_t>(wallMs.size()))
        .object("wall_ms", spreadJson(wallMs))
        .object("cpu_ms", spreadJson(cpuMs));
}

bool
ScalingSweep::identical() const
{
    return std::all_of(rows.begin(), rows.end(),
                       [](const ScalingRow &row) { return row.identical; });
}

int
ScalingSweep::belowSerial() const
{
    return static_cast<int>(
        std::count_if(rows.begin(), rows.end(), [](const ScalingRow &row) {
            return row.belowSerial;
        }));
}

void
ScalingSweep::print(std::ostream &out) const
{
    util::TablePrinter table({"threads", "median wall (ms)",
                              "min-max (ms)", "median cpu (ms)",
                              "speedup", "identical"});
    for (const ScalingRow &row : rows) {
        table.addRow({std::to_string(row.threads),
                      util::format("%.3f", row.trials.medianWallMs()),
                      util::format("%.3f-%.3f", row.trials.wallMs.front(),
                                   row.trials.wallMs.back()),
                      util::format("%.3f", median(row.trials.cpuMs)),
                      util::format("%.2fx", row.speedup) +
                          (row.belowSerial ? " (!)" : ""),
                      row.identical ? "yes" : "NO"});
        if (!row.identical)
            std::cerr << "FAIL: a result at " << row.threads
                      << " threads differs from the serial one\n";
    }
    table.print(out);
    if (skippedScaling)
        out << "note: single hardware thread; scaling assertions "
               "skipped (identity still enforced)\n";
}

std::vector<JsonObject>
ScalingSweep::rowsJson() const
{
    std::vector<JsonObject> json;
    for (const ScalingRow &row : rows) {
        JsonObject &doc = json.emplace_back();
        doc.num("threads", row.threads);
        row.trials.addTo(doc);
        doc.num("speedup", row.speedup, "%.4f")
            .boolean("identical", row.identical)
            .boolean("below_serial", row.belowSerial);
    }
    return json;
}

void
ScalingSweep::addFields(JsonObject &doc) const
{
    addScalingFields(doc, hardwareThreads);
    doc.num("below_serial_measurements", belowSerial());
}

ScalingSweep
judgeSweep(std::vector<ScalingRow> rows, unsigned hardwareThreads)
{
    ScalingSweep sweep;
    sweep.hardwareThreads = hardwareThreads;
    sweep.skippedScaling = hardwareThreads < 2;
    const double serial_ms = rows.front().trials.medianWallMs();
    for (ScalingRow &row : rows) {
        row.speedup = serial_ms / row.trials.medianWallMs();
        row.belowSerial = !sweep.skippedScaling && row.threads > 1 &&
                          row.threads <= static_cast<int>(hardwareThreads) &&
                          row.speedup < 1.0;
    }
    sweep.rows = std::move(rows);
    return sweep;
}

std::vector<int>
threadSweep(int maxThreads)
{
    std::vector<int> threads{1, 2, 4};
    for (int t = 8; t <= maxThreads; t *= 2)
        threads.push_back(t);
    return threads;
}

int
CheckSummary::finish() const
{
    flushBenchMetrics();
    if (allPassed_) {
        std::cout << "ALL " << total_ << " CHECKS IN BAND\n";
        return 0;
    }
    std::cout << "FAIL: some checks outside the paper band (see "
                 "[CHECK] lines); see EXPERIMENTS.md for discussion\n";
    return 1;
}

} // namespace bench
} // namespace ceer

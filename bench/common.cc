#include "bench/common.h"

#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "core/trainer.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "profile/profile_cache.h"
#include "sim/simulator.h"
#include "util/logging.h"
#include "util/strings.h"

namespace ceer {
namespace bench {

using graph::OpType;

namespace {
/** The run's --metrics-out destination ("" = none). */
std::string g_metrics_out;
} // namespace

void
setMetricsOut(const std::string &path)
{
    g_metrics_out = path;
    if (!g_metrics_out.empty())
        obs::setEnabled(true);
}

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
    flags.defineString("profile-cache", "build/profile-cache",
                       "shared profile cache directory ('none' "
                       "disables)");
    flags.defineString("metrics-out", "",
                       "write a metrics JSON snapshot here (enables "
                       "observability for the run)");
    flags.parse(argc, argv);

    BenchConfig config;
    config.iterations = static_cast<int>(flags.getInt("iters"));
    config.evalIterations = static_cast<int>(flags.getInt("eval-iters"));
    config.batch = flags.getInt("batch");
    config.seed = static_cast<std::uint64_t>(flags.getInt("seed"));
    config.threads = static_cast<int>(flags.getInt("threads"));
    config.profileCache = flags.getString("profile-cache");
    if (config.profileCache == "none" || config.profileCache == "off")
        config.profileCache.clear();
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
    return profile::collectProfilesCached(models::trainingSetNames(),
                                          options,
                                          config.profileCache);
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
addScalingFields(JsonObject &doc, unsigned hardwareThreads,
                 bool scalingMeaningful)
{
    doc.num("hardware_threads", hardwareThreads);
    doc.boolean("skipped_scaling", !scalingMeaningful);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

JsonObject
spreadJson(const std::vector<double> &sorted)
{
    JsonObject spread;
    spread.num("median", sorted[sorted.size() / 2], "%.3f")
        .num("min", sorted.front(), "%.3f")
        .num("max", sorted.back(), "%.3f");
    return spread;
}

bool
writeBenchJson(const std::string &path, const JsonObject &doc)
{
    if (path.empty())
        return true;
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << "\n";
        return false;
    }
    doc.write(out);
    std::cout << "wrote " << path << "\n";
    return true;
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

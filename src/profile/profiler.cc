#include "profile/profiler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <unordered_map>

#include "io/cbf.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "profile/features.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/random.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace ceer {
namespace profile {

using graph::Device;
using graph::Graph;
using graph::Node;
using graph::OpType;

InstanceIndex::InstanceIndex(const Graph &g)
{
    std::unordered_map<std::string, std::uint32_t> index;
    index.reserve(g.size());
    nodeInstance.reserve(g.size());
    for (const Node &node : g.nodes()) {
        const auto [it, inserted] = index.try_emplace(
            opInstanceKey(node),
            static_cast<std::uint32_t>(instances.size()));
        if (inserted) {
            OpInstance instance;
            instance.op = node.type;
            instance.onCpu = node.device() == Device::Cpu;
            instance.features = opFeatures(node);
            instances.push_back(std::move(instance));
        }
        const std::size_t occurrences = ++instances[it->second].occurrences;
        maxOccurrences = std::max(maxOccurrences, occurrences);
        nodeInstance.push_back(it->second);
    }
}

Profiler::Profiler(const InstanceIndex &index,
                   const util::ReservoirSchedule &schedule,
                   std::string model, hw::GpuModel gpu)
    : index_(&index), schedule_(&schedule), model_(std::move(model)),
      gpu_(gpu), stats_(index.instances.size()),
      samples_(index.instances.size())
{
    if (schedule.capacity() != kProfileSamples)
        util::panic("Profiler: reservoir schedule has the wrong capacity");
}

void
Profiler::observe(std::span<const double> times_us)
{
    if (times_us.size() != index_->nodeInstance.size())
        util::panic("Profiler::observe: op times do not match the graph");
    ++iterations_;
    if (iterations_ * index_->maxOccurrences > schedule_->maxOffered())
        util::panic("Profiler::observe: reservoir schedule too short");
    const std::uint32_t *instance_of = index_->nodeInstance.data();
    for (std::size_t i = 0; i < times_us.size(); ++i) {
        const std::uint32_t instance = instance_of[i];
        const double t = times_us[i];
        stats_[instance].add(t);
        // SampleReservoir::add, branch-free: the schedule sends a
        // dropped offer to the block's spare last slot.
        SampleBlock &block = samples_[instance];
        block.slots[schedule_->slot(++block.offered)] = t;
    }
}

std::vector<OpProfile>
Profiler::takeProfiles() const
{
    std::vector<OpProfile> profiles(index_->instances.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const OpInstance &instance = index_->instances[i];
        const SampleBlock &block = samples_[i];
        OpProfile &profile = profiles[i];
        profile.model = model_;
        profile.gpu = gpu_;
        profile.op = instance.op;
        profile.onCpu = instance.onCpu;
        profile.features = instance.features;
        profile.occurrences = instance.occurrences;
        profile.timeUs = stats_[i];
        profile.samples = schedule_->reservoir(
            block.offered,
            std::vector<double>(
                block.slots,
                block.slots + std::min(block.offered, kProfileSamples)));
    }
    return profiles;
}

void
ProfileDataset::add(std::vector<OpProfile> profiles)
{
    for (auto &profile : profiles) {
        const std::size_t index = ops_.size();
        opIndex_[{profile.gpu, profile.op}].push_back(index);
        gpuIndex_[profile.gpu].push_back(index);
        ops_.push_back(std::move(profile));
    }
}

void
ProfileDataset::addIteration(const IterationProfile &profile)
{
    iterations_.push_back(profile);
}

std::vector<const OpProfile *>
ProfileDataset::opsFor(hw::GpuModel gpu) const
{
    std::vector<const OpProfile *> out;
    const auto it = gpuIndex_.find(gpu);
    if (it == gpuIndex_.end())
        return out;
    out.reserve(it->second.size());
    for (std::size_t index : it->second)
        out.push_back(&ops_[index]);
    return out;
}

std::vector<const OpProfile *>
ProfileDataset::opsFor(hw::GpuModel gpu, OpType op) const
{
    std::vector<const OpProfile *> out;
    const auto it = opIndex_.find({gpu, op});
    if (it == opIndex_.end())
        return out;
    out.reserve(it->second.size());
    for (std::size_t index : it->second)
        out.push_back(&ops_[index]);
    return out;
}

double
ProfileDataset::meanTimeUs(hw::GpuModel gpu, OpType op) const
{
    // Execution-weighted mean across instances; summing in insertion
    // order matches the historical full-scan result bit for bit.
    const auto it = opIndex_.find({gpu, op});
    if (it == opIndex_.end())
        return 0.0;
    double total = 0.0;
    double count = 0.0;
    for (std::size_t index : it->second) {
        const OpProfile &profile = ops_[index];
        total += profile.timeUs.sum();
        count += static_cast<double>(profile.timeUs.count());
    }
    return count > 0.0 ? total / count : 0.0;
}

std::vector<OpType>
ProfileDataset::opTypes(hw::GpuModel gpu) const
{
    // opIndex_ keys are sorted by (gpu, op), so the slice for one GPU
    // yields op types in the same ascending order the old std::set
    // scan produced.
    std::vector<OpType> out;
    for (auto it = opIndex_.lower_bound({gpu, OpType{}});
         it != opIndex_.end() && it->first.first == gpu; ++it)
        out.push_back(it->first.second);
    return out;
}

void
ProfileDataset::saveCsv(std::ostream &out) const
{
    util::CsvWriter writer(out);
    writer.writeRow({"kind", "model", "gpu", "op", "device",
                     "occurrences", "count", "mean_us", "stddev_us",
                     "features", "samples"});
    for (const auto &run : iterations_) {
        writer.writeRow({
            "iter",
            run.model,
            hw::gpuModelName(run.gpu),
            std::to_string(run.numGpus),
            std::to_string(run.paramCount),
            "",
            "",
            util::format("%.9g", run.meanIterationUs),
            util::format("%.9g", run.meanComputeUs),
            util::format("%.9g", run.meanCommUs),
            "",
        });
    }
    for (const auto &profile : ops_) {
        std::vector<std::string> feature_text;
        for (double f : profile.features)
            feature_text.push_back(util::format("%.17g", f));
        std::vector<std::string> sample_text;
        for (double s : profile.samples.samples())
            sample_text.push_back(util::format("%.6g", s));
        writer.writeRow({
            "op",
            profile.model,
            hw::gpuModelName(profile.gpu),
            graph::opTypeName(profile.op),
            profile.onCpu ? "cpu" : "gpu",
            std::to_string(profile.occurrences),
            std::to_string(profile.timeUs.count()),
            util::format("%.9g", profile.timeUs.mean()),
            util::format("%.9g", profile.timeUs.stddev()),
            util::join(feature_text, ";"),
            util::join(sample_text, ";"),
        });
    }
}

ProfileDataset
ProfileDataset::loadCsv(std::istream &in)
{
    ProfileDataset dataset;
    std::string error;
    if (!tryLoadCsv(in, &dataset, &error))
        util::fatal("ProfileDataset::loadCsv: " + error);
    return dataset;
}

bool
ProfileDataset::tryLoadCsv(std::istream &in, ProfileDataset *dataset,
                           std::string *error)
{
    ProfileDataset parsed;
    std::vector<OpProfile> loaded_ops;
    std::vector<std::vector<std::string>> rows;
    if (!util::tryReadCsv(in, &rows, error))
        return false;
    // Numeric fields are parsed through this helper so every failure
    // reports its (row, column) coordinates plus the column name.
    std::size_t row_no = 0;
    const auto parse_double = [&](const std::string &field,
                                  std::size_t column, const char *name,
                                  double *out) {
        const auto result = util::parseDouble(field);
        if (!result) {
            *error = util::format("row %zu column %zu (%s): %s: '%s'",
                                  row_no, column, name, result.error,
                                  field.c_str());
            return false;
        }
        *out = result.value;
        return true;
    };
    for (std::size_t i = 1; i < rows.size(); ++i) {
        const auto &row = rows[i];
        row_no = i;
        if (row.size() < 11) {
            *error = util::format("row %zu has %zu fields", i,
                                  row.size());
            return false;
        }
        if (row[0] == "iter") {
            IterationProfile run;
            run.model = row[1];
            if (!hw::gpuModelFromName(row[2], run.gpu)) {
                *error = "bad GPU " + row[2];
                return false;
            }
            const auto num_gpus = util::parseInt64(row[3]);
            if (!num_gpus || num_gpus.value < 1) {
                *error = util::format(
                    "row %zu column 4 (num_gpus): bad value '%s'", i,
                    row[3].c_str());
                return false;
            }
            run.numGpus = static_cast<int>(num_gpus.value);
            const auto params = util::parseInt64(row[4]);
            if (!params) {
                *error = util::format(
                    "row %zu column 5 (param_count): %s: '%s'", i,
                    params.error, row[4].c_str());
                return false;
            }
            run.paramCount = params.value;
            if (!parse_double(row[7], 8, "mean_iteration_us",
                              &run.meanIterationUs) ||
                !parse_double(row[8], 9, "mean_compute_us",
                              &run.meanComputeUs) ||
                !parse_double(row[9], 10, "mean_comm_us",
                              &run.meanCommUs))
                return false;
            parsed.iterations_.push_back(std::move(run));
            continue;
        }
        if (row[0] != "op") {
            *error = "unknown row kind '" + row[0] + "'";
            return false;
        }
        OpProfile profile;
        profile.model = row[1];
        if (!hw::gpuModelFromName(row[2], profile.gpu)) {
            *error = "bad GPU " + row[2];
            return false;
        }
        if (!graph::opTypeFromName(row[3], profile.op)) {
            *error = "bad op " + row[3];
            return false;
        }
        if (row[4] != "cpu" && row[4] != "gpu") {
            *error = util::format(
                "row %zu column 5 (device): expected 'cpu' or 'gpu': "
                "'%s'", i, row[4].c_str());
            return false;
        }
        profile.onCpu = row[4] == "cpu";
        const auto occurrences = util::parseSize(row[5]);
        if (!occurrences) {
            *error = util::format(
                "row %zu column 6 (occurrences): %s: '%s'", i,
                occurrences.error, row[5].c_str());
            return false;
        }
        profile.occurrences = occurrences.value;
        const auto count_parsed = util::parseSize(row[6]);
        if (!count_parsed) {
            *error = util::format("row %zu column 7 (count): %s: '%s'",
                                  i, count_parsed.error, row[6].c_str());
            return false;
        }
        const std::size_t count = count_parsed.value;
        // The moment reconstruction below loops `count` times; a
        // corrupt count must not turn into a near-infinite loop.
        constexpr std::size_t kMaxPlausibleCount = 100'000'000;
        if (count > kMaxPlausibleCount) {
            *error = util::format(
                "row %zu column 7 (count): implausibly large count "
                "'%s'", i, row[6].c_str());
            return false;
        }
        double mean = 0.0, stddev = 0.0;
        if (!parse_double(row[7], 8, "mean_us", &mean) ||
            !parse_double(row[8], 9, "stddev_us", &stddev))
            return false;
        for (const auto &text : util::split(row[9], ';')) {
            if (text.empty())
                continue;
            double feature = 0.0;
            if (!parse_double(text, 10, "features", &feature))
                return false;
            profile.features.push_back(feature);
        }
        for (const auto &text : util::split(row[10], ';')) {
            if (text.empty())
                continue;
            double sample = 0.0;
            if (!parse_double(text, 11, "samples", &sample))
                return false;
            profile.samples.add(sample);
        }
        // Rebuild approximate RunningStats from (count, mean, stddev):
        // we reconstruct a two-point distribution with those moments.
        if (count == 1) {
            profile.timeUs.add(mean);
        } else if (count > 1) {
            const double half =
                stddev * std::sqrt(static_cast<double>(count - 1) /
                                   static_cast<double>(count));
            for (std::size_t j = 0; j < count; ++j)
                profile.timeUs.add(j % 2 == 0 ? mean + half
                                              : mean - half);
        }
        loaded_ops.push_back(std::move(profile));
    }
    // Route through add() so the (gpu, op) indices are built.
    parsed.add(std::move(loaded_ops));
    *dataset = std::move(parsed);
    return true;
}

void
ProfileDataset::saveCbf(std::ostream &out) const
{
    io::CbfBuilder builder;
    builder.addBytes("schema", "ceer.profiles.v1");

    std::vector<std::string> op_model, op_gpu, op_op;
    std::vector<std::uint8_t> on_cpu;
    std::vector<std::uint64_t> occurrences, time_count, sample_capacity,
        sample_offered, sample_rng;
    std::vector<double> time_mean, time_m2, time_min, time_max;
    std::vector<std::vector<double>> features, samples;
    for (const OpProfile &profile : ops_) {
        op_model.push_back(profile.model);
        op_gpu.push_back(hw::gpuModelName(profile.gpu));
        op_op.push_back(graph::opTypeName(profile.op));
        on_cpu.push_back(profile.onCpu ? 1 : 0);
        occurrences.push_back(profile.occurrences);
        features.push_back(profile.features);
        const bool has_obs = profile.timeUs.count() > 0;
        time_count.push_back(profile.timeUs.count());
        time_mean.push_back(has_obs ? profile.timeUs.mean() : 0.0);
        time_m2.push_back(profile.timeUs.sumSquaredDeviations());
        time_min.push_back(has_obs ? profile.timeUs.min() : 0.0);
        time_max.push_back(has_obs ? profile.timeUs.max() : 0.0);
        samples.push_back(profile.samples.samples());
        sample_capacity.push_back(profile.samples.capacity());
        sample_offered.push_back(profile.samples.offered());
        sample_rng.push_back(profile.samples.rngState());
    }
    io::addStringColumn(&builder, "op.model", op_model);
    io::addStringColumn(&builder, "op.gpu", op_gpu);
    io::addStringColumn(&builder, "op.op", op_op);
    builder.addU8("op.on_cpu", on_cpu);
    builder.addU64("op.occurrences", occurrences);
    io::addF64ListColumn(&builder, "op.features", features);
    builder.addU64("op.time_count", time_count);
    builder.addF64("op.time_mean", time_mean);
    builder.addF64("op.time_m2", time_m2);
    builder.addF64("op.time_min", time_min);
    builder.addF64("op.time_max", time_max);
    io::addF64ListColumn(&builder, "op.samples", samples);
    builder.addU64("op.sample_capacity", sample_capacity);
    builder.addU64("op.sample_offered", sample_offered);
    builder.addU64("op.sample_rng", sample_rng);

    std::vector<std::string> iter_model, iter_gpu;
    std::vector<std::int64_t> iter_gpus, iter_params;
    std::vector<double> iter_us, compute_us, comm_us;
    for (const IterationProfile &run : iterations_) {
        iter_model.push_back(run.model);
        iter_gpu.push_back(hw::gpuModelName(run.gpu));
        iter_gpus.push_back(run.numGpus);
        iter_params.push_back(run.paramCount);
        iter_us.push_back(run.meanIterationUs);
        compute_us.push_back(run.meanComputeUs);
        comm_us.push_back(run.meanCommUs);
    }
    io::addStringColumn(&builder, "iter.model", iter_model);
    io::addStringColumn(&builder, "iter.gpu", iter_gpu);
    builder.addI64("iter.num_gpus", iter_gpus);
    builder.addI64("iter.param_count", iter_params);
    builder.addF64("iter.mean_iteration_us", iter_us);
    builder.addF64("iter.mean_compute_us", compute_us);
    builder.addF64("iter.mean_comm_us", comm_us);

    builder.write(out);
}

bool
ProfileDataset::tryLoadCbf(const io::CbfFile &file,
                           ProfileDataset *dataset, std::string *error)
{
    const char *schema = nullptr;
    std::size_t schema_size = 0;
    if (!file.bytes("schema", &schema, &schema_size, error))
        return false;
    const std::string schema_name(schema, schema_size);
    if (schema_name != "ceer.profiles.v1") {
        *error = "schema '" + schema_name +
                 "' is not ceer.profiles.v1 (wrong container?)";
        return false;
    }

    std::vector<std::string> op_model, op_gpu, op_op;
    if (!io::readStringColumn(file, "op.model", &op_model, error) ||
        !io::readStringColumn(file, "op.gpu", &op_gpu, error) ||
        !io::readStringColumn(file, "op.op", &op_op, error))
        return false;
    const std::size_t op_rows = op_model.size();
    // Every other column must agree with op.model on the row count; a
    // file with mismatched columns is structurally corrupt.
    const auto sized = [&](std::size_t count, std::size_t rows,
                           const char *name) {
        if (count == rows)
            return true;
        *error = util::format("column '%s' has %zu rows, expected %zu",
                              name, count, rows);
        return false;
    };
    const std::uint8_t *on_cpu = nullptr;
    const std::uint64_t *occurrences = nullptr, *time_count = nullptr,
                        *sample_capacity = nullptr,
                        *sample_offered = nullptr, *sample_rng = nullptr;
    const double *time_mean = nullptr, *time_m2 = nullptr,
                 *time_min = nullptr, *time_max = nullptr;
    std::size_t n = 0;
    std::vector<std::vector<double>> features, samples;
    if (!(file.u8("op.on_cpu", &on_cpu, &n, error) &&
          sized(n, op_rows, "op.on_cpu")) ||
        !(file.u64("op.occurrences", &occurrences, &n, error) &&
          sized(n, op_rows, "op.occurrences")) ||
        !(io::readF64ListColumn(file, "op.features", &features, error) &&
          sized(features.size(), op_rows, "op.features")) ||
        !(file.u64("op.time_count", &time_count, &n, error) &&
          sized(n, op_rows, "op.time_count")) ||
        !(file.f64("op.time_mean", &time_mean, &n, error) &&
          sized(n, op_rows, "op.time_mean")) ||
        !(file.f64("op.time_m2", &time_m2, &n, error) &&
          sized(n, op_rows, "op.time_m2")) ||
        !(file.f64("op.time_min", &time_min, &n, error) &&
          sized(n, op_rows, "op.time_min")) ||
        !(file.f64("op.time_max", &time_max, &n, error) &&
          sized(n, op_rows, "op.time_max")) ||
        !(io::readF64ListColumn(file, "op.samples", &samples, error) &&
          sized(samples.size(), op_rows, "op.samples")) ||
        !(file.u64("op.sample_capacity", &sample_capacity, &n, error) &&
          sized(n, op_rows, "op.sample_capacity")) ||
        !(file.u64("op.sample_offered", &sample_offered, &n, error) &&
          sized(n, op_rows, "op.sample_offered")) ||
        !(file.u64("op.sample_rng", &sample_rng, &n, error) &&
          sized(n, op_rows, "op.sample_rng")))
        return false;

    std::vector<OpProfile> loaded_ops;
    loaded_ops.reserve(op_rows);
    for (std::size_t i = 0; i < op_rows; ++i) {
        OpProfile profile;
        profile.model = std::move(op_model[i]);
        if (!hw::gpuModelFromName(op_gpu[i], profile.gpu)) {
            *error = util::format("op row %zu: bad GPU '%s'", i,
                                  op_gpu[i].c_str());
            return false;
        }
        if (!graph::opTypeFromName(op_op[i], profile.op)) {
            *error = util::format("op row %zu: bad op '%s'", i,
                                  op_op[i].c_str());
            return false;
        }
        profile.onCpu = on_cpu[i] != 0;
        profile.occurrences = occurrences[i];
        profile.features = std::move(features[i]);
        profile.timeUs = util::RunningStats::fromState(
            time_count[i], time_mean[i], time_m2[i], time_min[i],
            time_max[i]);
        const std::uint64_t capacity = sample_capacity[i];
        const std::uint64_t offered = sample_offered[i];
        const std::size_t retained = samples[i].size();
        const bool consistent =
            capacity > 0 && (offered <= capacity ? retained == offered
                                                 : retained == capacity);
        if (!consistent) {
            *error = util::format(
                "op row %zu: inconsistent sample reservoir (capacity "
                "%llu, offered %llu, retained %zu)",
                i, static_cast<unsigned long long>(capacity),
                static_cast<unsigned long long>(offered), retained);
            return false;
        }
        profile.samples = util::SampleReservoir::fromState(
            capacity, offered, sample_rng[i], std::move(samples[i]));
        loaded_ops.push_back(std::move(profile));
    }

    std::vector<std::string> iter_model, iter_gpu;
    if (!io::readStringColumn(file, "iter.model", &iter_model, error) ||
        !io::readStringColumn(file, "iter.gpu", &iter_gpu, error))
        return false;
    const std::size_t iter_rows = iter_model.size();
    const std::int64_t *iter_gpus = nullptr, *iter_params = nullptr;
    const double *iter_us = nullptr, *compute_us = nullptr,
                 *comm_us = nullptr;
    if (!(file.i64("iter.num_gpus", &iter_gpus, &n, error) &&
          sized(n, iter_rows, "iter.num_gpus")) ||
        !(file.i64("iter.param_count", &iter_params, &n, error) &&
          sized(n, iter_rows, "iter.param_count")) ||
        !(file.f64("iter.mean_iteration_us", &iter_us, &n, error) &&
          sized(n, iter_rows, "iter.mean_iteration_us")) ||
        !(file.f64("iter.mean_compute_us", &compute_us, &n, error) &&
          sized(n, iter_rows, "iter.mean_compute_us")) ||
        !(file.f64("iter.mean_comm_us", &comm_us, &n, error) &&
          sized(n, iter_rows, "iter.mean_comm_us")) ||
        !sized(iter_gpu.size(), iter_rows, "iter.gpu"))
        return false;

    ProfileDataset parsed;
    parsed.iterations_.reserve(iter_rows);
    for (std::size_t i = 0; i < iter_rows; ++i) {
        IterationProfile run;
        run.model = std::move(iter_model[i]);
        if (!hw::gpuModelFromName(iter_gpu[i], run.gpu)) {
            *error = util::format("iter row %zu: bad GPU '%s'", i,
                                  iter_gpu[i].c_str());
            return false;
        }
        if (iter_gpus[i] < 1) {
            *error = util::format(
                "iter row %zu: bad num_gpus %lld", i,
                static_cast<long long>(iter_gpus[i]));
            return false;
        }
        run.numGpus = static_cast<int>(iter_gpus[i]);
        run.paramCount = iter_params[i];
        run.meanIterationUs = iter_us[i];
        run.meanComputeUs = compute_us[i];
        run.meanCommUs = comm_us[i];
        parsed.iterations_.push_back(std::move(run));
    }

    // Route through add() so the (gpu, op) indices are built.
    parsed.add(std::move(loaded_ops));
    *dataset = std::move(parsed);
    return true;
}

bool
ProfileDataset::tryLoadFile(const std::string &path,
                            ProfileDataset *dataset, std::string *error)
{
    return io::tryLoadSniffed(
        path,
        [dataset](const io::CbfFile &file, std::string *err) {
            return tryLoadCbf(file, dataset, err);
        },
        [dataset](std::istream &in, std::string *err) {
            return tryLoadCsv(in, dataset, err);
        },
        error);
}

ProfileDataset
ProfileDataset::loadFile(const std::string &path)
{
    ProfileDataset dataset;
    std::string error;
    if (!tryLoadFile(path, &dataset, &error))
        util::fatal("ProfileDataset::loadFile: " + error);
    return dataset;
}

std::uint64_t
runSeed(std::uint64_t base_seed, const std::string &model,
        hw::GpuModel gpu, int num_gpus)
{
    std::uint64_t h = util::hashMix(base_seed, 0x43454552ull); // "CEER"
    h = util::hashMix(h, model);
    h = util::hashMix(h, static_cast<std::uint64_t>(gpu));
    h = util::hashMix(h, static_cast<std::uint64_t>(num_gpus));
    return h;
}

namespace {

/** What one run produces (op profiles only for the observed run). */
struct RunResult
{
    std::vector<OpProfile> ops;
    IterationProfile run;
};

/**
 * Runs @p iterations iterations of @p g on @p plan, observed through a
 * Profiler when @p index is set. Every run of the sweep, and
 * profileRun(), goes through here.
 */
RunResult
simulateRun(const Graph &g, const std::shared_ptr<const sim::ExecPlan> &plan,
            const InstanceIndex *index,
            const util::ReservoirSchedule &schedule,
            const std::string &name, const sim::SimConfig &config,
            int iterations)
{
    sim::TrainingSimulator simulator(plan, config);
    RunResult result;
    sim::RunStats stats;
    if (index) {
        // Observed runs execute serially and in graph order (the
        // observer contract): parallelism lives one level up, across
        // the sweep's (CNN, GPU) tasks, so profile datasets stay
        // byte-identical regardless of either thread count.
        Profiler profiler(*index, schedule, name, config.gpu);
        stats = simulator.run(iterations, profiler.observer());
        result.ops = profiler.takeProfiles();
    } else {
        stats = simulator.run(iterations);
    }
    result.run.model = name;
    result.run.gpu = config.gpu;
    result.run.numGpus = config.numGpus;
    result.run.paramCount = g.totalParameters();
    result.run.meanIterationUs = stats.iterationUs.mean();
    result.run.meanComputeUs = stats.computeUs.mean();
    result.run.meanCommUs = stats.commUs.mean();
    return result;
}

} // namespace

std::pair<std::vector<OpProfile>, IterationProfile>
profileRun(const Graph &g, const std::string &model_name,
           const sim::SimConfig &config, int iterations)
{
    if (iterations < 1)
        util::panic("profileRun: iterations must be >= 1");
    const InstanceIndex index(g);
    const util::ReservoirSchedule schedule(
        kProfileSamples,
        index.maxOccurrences * static_cast<std::size_t>(iterations));
    RunResult result = simulateRun(
        g,
        std::make_shared<const sim::ExecPlan>(
            sim::ExecPlan::build(g, config.gpu)),
        &index, schedule, model_name, config, iterations);
    return {std::move(result.ops), std::move(result.run)};
}

namespace {

/**
 * One (CNN, GPU) task of the sweep: the observed k = 1 run plus the
 * run-level k = 2..maxGpus runs, all on one shared ExecPlan.
 */
struct SweepUnit
{
    std::size_t modelIndex = 0;
    hw::GpuModel gpu = hw::GpuModel::V100;
    std::vector<RunResult> runs; ///< Index k - 1.
};

/** What collectProfiles prepares once per CNN, shared by its units. */
struct ModelInputs
{
    Graph graph;
    InstanceIndex index;
};

void
executeUnit(SweepUnit &unit, const std::string &name,
            const ModelInputs &inputs,
            const util::ReservoirSchedule &schedule,
            const CollectOptions &options)
{
    const int max_k = options.multiGpuRuns ? std::max(options.maxGpus, 1)
                                           : 1;
    unit.runs.resize(static_cast<std::size_t>(max_k));
    std::shared_ptr<const sim::ExecPlan> plan;
    for (int k = 1; k <= max_k; ++k) {
        // The span name is formatted only when observability is on;
        // recording never feeds back into the run, so the dataset is
        // byte-identical with obs enabled or disabled.
        std::optional<obs::ScopedSpan> span;
        if (obs::enabled())
            span.emplace(util::format("profile %s %s k=%d", name.c_str(),
                                      hw::gpuModelName(unit.gpu).c_str(),
                                      k),
                         "profile");
        OBS_TIMER("profile.run_us");
        if (!plan)
            plan = std::make_shared<const sim::ExecPlan>(
                sim::ExecPlan::build(inputs.graph, unit.gpu));
        sim::SimConfig config;
        config.gpu = unit.gpu;
        config.numGpus = k;
        config.gpusPerHost = options.gpusPerHost;
        config.seed = runSeed(options.seed, name, unit.gpu, k);
        // k >= 2 is run-level only: op times match the k=1 case by
        // construction (same per-GPU batch), as in the paper.
        unit.runs[static_cast<std::size_t>(k - 1)] = simulateRun(
            inputs.graph, plan, k == 1 ? &inputs.index : nullptr,
            schedule, name, config, options.iterations);
        OBS_COUNTER_INC("profile.runs");
    }
}

} // namespace

ProfileDataset
collectProfiles(const std::vector<std::string> &model_names,
                const CollectOptions &options)
{
    if (options.iterations < 1)
        util::panic("collectProfiles: iterations must be >= 1");
    // Build each graph and its instance index once, on this thread,
    // and share them read-only across the CNN's four GPU units.
    // consumers() is the only lazily-built Graph cache; pre-warm it so
    // concurrent readers never mutate shared state.
    std::vector<ModelInputs> inputs;
    inputs.reserve(model_names.size());
    std::size_t max_offered = 0;
    for (const auto &name : model_names) {
        Graph g = models::buildModel(name, options.batch);
        g.consumers();
        InstanceIndex index(g);
        max_offered = std::max(max_offered, index.maxOccurrences);
        inputs.push_back({std::move(g), std::move(index)});
    }
    // Every observed run replays the same reservoir draws; draw them
    // once for the longest instance stream of the sweep.
    const util::ReservoirSchedule schedule(
        kProfileSamples,
        max_offered * static_cast<std::size_t>(options.iterations));

    // Enumerate the (CNN, GPU) units in canonical order; results merge
    // back in (CNN, GPU, k) order, so the dataset is bit-identical for
    // any thread count.
    std::vector<SweepUnit> units;
    for (std::size_t m = 0; m < model_names.size(); ++m)
        for (hw::GpuModel gpu : hw::allGpuModels())
            units.push_back({m, gpu, {}});
    // Dispatch the largest graphs first so the last units to finish
    // are the short ones.
    std::vector<std::size_t> order(units.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return inputs[units[a].modelIndex].graph.size() >
                                inputs[units[b].modelIndex].graph.size();
                     });
    auto execute = [&](std::size_t i) {
        SweepUnit &unit = units[order[i]];
        executeUnit(unit, model_names[unit.modelIndex],
                    inputs[unit.modelIndex], schedule, options);
    };

    // Units are tens-of-milliseconds tasks: the static cost hint
    // keeps the grain at one unit per claim (no batching win to be
    // had), and the shared pool's parked workers make the fan-out
    // cost independent of how often this is called.
    util::ParallelOptions parallel;
    parallel.costHintUs = 2000.0;
    parallel.maxThreads = util::ThreadPool::effectiveThreads(options.threads);
    util::ThreadPool::shared().parallelForRange(
        units.size(), parallel, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                execute(i);
        });

    ProfileDataset dataset;
    for (SweepUnit &unit : units) {
        for (RunResult &result : unit.runs) {
            if (!result.ops.empty())
                dataset.add(std::move(result.ops));
            dataset.addIteration(result.run);
        }
    }
    for (const auto &name : model_names)
        CEER_LOG(Info) << "profiled " << name << " on "
                       << hw::allGpuModels().size() << " GPU models";
    return dataset;
}

} // namespace profile
} // namespace ceer

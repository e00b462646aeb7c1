#include "profile/profiler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <unordered_map>

#include "io/schema.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "profile/features.h"
#include "util/logging.h"
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

void
InstanceIndex::appendRows(std::vector<OpProfile> *rows,
                          const std::string &model, hw::GpuModel gpu) const
{
    for (const OpInstance &instance : instances) {
        OpProfile &row = rows->emplace_back();
        row.model = model;
        row.gpu = gpu;
        row.op = instance.op;
        row.onCpu = instance.onCpu;
        row.features = instance.features;
        row.occurrences = instance.occurrences;
    }
}

Profiler::Profiler(const InstanceIndex &index,
                   const util::ReservoirSchedule &schedule,
                   std::span<OpProfile> rows)
    : index_(&index), schedule_(&schedule), rows_(rows)
{
    if (schedule.capacity() != kProfileSamples)
        util::panic("Profiler: reservoir schedule has the wrong capacity");
    if (rows.size() != index.instances.size())
        util::panic("Profiler: rows do not match the instances");
    for (const OpProfile &row : rows)
        if (row.timeUs.count() != 0 || row.samples.offered() != 0 ||
            row.samples.capacity() != kProfileSamples)
            util::panic("Profiler: rows must be empty, of capacity "
                        "kProfileSamples");
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
    OpProfile *rows = rows_.data();
    for (std::size_t i = 0; i < times_us.size(); ++i) {
        OpProfile &row = rows[instance_of[i]];
        const double t = times_us[i];
        row.timeUs.add(t);
        row.samples.replay(t, *schedule_);
    }
}

void
ProfileDataset::add(std::vector<OpProfile> profiles)
{
    for (auto &profile : profiles)
        append(std::move(profile));
}

void
ProfileDataset::append(OpProfile profile)
{
    ops_.push_back(std::move(profile));
    indexRow(ops_.size() - 1);
}

void
ProfileDataset::indexRow(std::size_t row)
{
    const OpProfile &profile = ops_[row];
    opIndex_[{profile.gpu, profile.op}].push_back(row);
    gpuIndex_[profile.gpu].push_back(row);
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

namespace {

/**
 * One op row in transit: the profile plus its dialect-only columns.
 * CSV keeps a (count, mean, stddev) summary of the timings; CBF keeps
 * the exact RunningStats and SampleReservoir state.
 */
struct OpRow : OpProfile
{
    OpRow() = default;
    explicit OpRow(const OpProfile &profile)
        : OpProfile(profile), count(profile.timeUs.count()),
          mean(profile.timeUs.mean()), stddev(profile.timeUs.stddev()),
          timeCount(profile.timeUs.count()),
          timeM2(profile.timeUs.sumSquaredDeviations()),
          retained(profile.samples.samples()),
          capacity(profile.samples.capacity()),
          offered(profile.samples.offered()),
          rng(profile.samples.rngState())
    {
        if (timeCount > 0) {
            timeMean = profile.timeUs.mean();
            timeMin = profile.timeUs.min();
            timeMax = profile.timeUs.max();
        }
    }

    std::size_t count = 0; ///< CSV.
    double mean = 0.0;     ///< CSV.
    double stddev = 0.0;   ///< CSV.
    std::uint64_t timeCount = 0;
    double timeMean = 0.0, timeM2 = 0.0, timeMin = 0.0, timeMax = 0.0;
    std::vector<double> retained; ///< Reservoir samples (both).
    std::uint64_t capacity = 0, offered = 0, rng = 0;
};

/**
 * The CSV count is replayed as a two-point distribution, one add per
 * count; a corrupt count must not turn into a near-infinite loop.
 */
constexpr std::int64_t kMaxCsvCount = 100'000'000;

/** Builds an op row's timings the way its dialect stores them. */
bool
finishOp(OpRow *row, io::Dialect dialect, std::string *why)
{
    if (dialect == io::Dialect::Text) {
        for (double sample : row->retained)
            row->samples.add(sample);
        // Rebuild approximate moments from (count, mean, stddev) as a
        // two-point distribution with those moments.
        if (row->count == 1) {
            row->timeUs.add(row->mean);
        } else if (row->count > 1) {
            const double n = static_cast<double>(row->count);
            const double half = row->stddev * std::sqrt((n - 1.0) / n);
            for (std::size_t j = 0; j < row->count; ++j)
                row->timeUs.add(j % 2 == 0 ? row->mean + half
                                           : row->mean - half);
        }
        return true;
    }
    const std::size_t retained = row->retained.size();
    if (row->capacity == 0 ||
        retained != std::min(row->offered, row->capacity)) {
        *why = util::format(
            "inconsistent sample reservoir (capacity %llu, offered "
            "%llu, retained %zu)",
            static_cast<unsigned long long>(row->capacity),
            static_cast<unsigned long long>(row->offered), retained);
        return false;
    }
    row->timeUs = util::RunningStats::fromState(
        row->timeCount, row->timeMean, row->timeM2, row->timeMin,
        row->timeMax);
    row->samples = util::SampleReservoir::fromState(
        row->capacity, row->offered, row->rng, std::move(row->retained));
    return true;
}

} // namespace

const io::FileSchema<ProfileDataset> &
ProfileDataset::schema()
{
    using R = IterationProfile;
    static const auto iterations =
        io::Table<ProfileDataset, R>::of<&ProfileDataset::iterations_>(
            "iter", "iter.",
            {io::field<&R::model>("model", 1),
             io::gpuColumn<&R::gpu>("gpu", 2),
             io::ranged<&R::numGpus, 1, hw::kMaxGpus>("num_gpus", 3),
             io::ranged<&R::paramCount, 0, INT64_MAX>("param_count", 4),
             io::field<&R::meanIterationUs>("mean_iteration_us", 7, "%.9g"),
             io::field<&R::meanComputeUs>("mean_compute_us", 8, "%.9g"),
             io::field<&R::meanCommUs>("mean_comm_us", 9, "%.9g")});
        static const io::Table<ProfileDataset, OpRow> ops(
            "op", "op.",
            {io::field<&OpRow::model, OpRow>("model", 1),
             io::gpuColumn<&OpRow::gpu, OpRow>("gpu", 2),
             io::opColumn<&OpRow::op, OpRow>("op", 3),
             io::field<&OpRow::onCpu, OpRow>("on_cpu", 4, "gpu|cpu"),
             io::field<&OpRow::occurrences, OpRow>("occurrences", 5),
             io::field<&OpRow::features, OpRow>("features", 9, "%.17g"),
             io::ranged<&OpRow::count, 0, kMaxCsvCount>("count", 6, false),
             io::field<&OpRow::mean>("mean_us", 7, "%.9g", false),
             io::field<&OpRow::stddev>("stddev_us", 8, "%.9g", false),
             io::field<&OpRow::timeCount>("time_count", -1),
             io::field<&OpRow::timeMean>("time_mean", -1),
             io::field<&OpRow::timeM2>("time_m2", -1),
             io::field<&OpRow::timeMin>("time_min", -1),
             io::field<&OpRow::timeMax>("time_max", -1),
             io::field<&OpRow::retained>("samples", 10, "%.6g"),
             io::field<&OpRow::capacity>("sample_capacity", -1),
             io::field<&OpRow::offered>("sample_offered", -1),
             io::field<&OpRow::rng>("sample_rng", -1)},
            [](const ProfileDataset &dataset, const auto &emit) {
                for (const OpProfile &profile : dataset.ops_)
                    emit(OpRow(profile));
            },
            [](ProfileDataset *dataset, OpRow &&row, io::Dialect dialect,
               std::string *why) {
                if (!finishOp(&row, dialect, why))
                    return false;
                dataset->append(std::move(row));
                return true;
            });
    static const io::FileSchema<ProfileDataset> schema(
        "ceer.profiles.v1",
        {"kind", "model", "gpu", "op", "device", "occurrences", "count",
         "mean_us", "stddev_us", "features", "samples"},
        {&ops, &iterations}, {&iterations, &ops});
    return schema;
}

void
ProfileDataset::saveCsv(std::ostream &out) const
{
    schema().saveCsv(*this, out);
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
    return schema().tryLoadCsv(in, dataset, error);
}

void
ProfileDataset::saveCbf(std::ostream &out) const
{
    schema().saveCbf(*this, out);
}

bool
ProfileDataset::tryLoadCbf(const io::CbfFile &file,
                           ProfileDataset *dataset, std::string *error)
{
    return schema().tryLoadCbf(file, dataset, error);
}

bool
ProfileDataset::tryLoadFile(const std::string &path,
                            ProfileDataset *dataset, std::string *error)
{
    return schema().tryLoadFile(path, dataset, error);
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

/**
 * Runs @p iterations iterations on @p plan and writes the run-level
 * means into @p run. When @p index is set the run is observed through
 * a Profiler that accumulates into @p ops, one row per instance. Every
 * run of the sweep, and profileRun(), goes through here; it writes only
 * into rows its caller made, so nothing it keeps is allocated on this
 * thread.
 */
void
simulateRun(const std::shared_ptr<const sim::ExecPlan> &plan,
            const InstanceIndex *index,
            const util::ReservoirSchedule &schedule,
            const sim::SimConfig &config, int iterations,
            std::span<OpProfile> ops, IterationProfile &run)
{
    sim::TrainingSimulator simulator(plan, config);
    sim::RunStats stats;
    if (index) {
        // Observed runs execute serially and in graph order (the
        // observer contract): parallelism lives one level up, across
        // the sweep's (CNN, GPU) tasks, so profile datasets stay
        // byte-identical regardless of either thread count.
        Profiler profiler(*index, schedule, ops);
        stats = simulator.run(iterations, profiler.observer());
    } else {
        stats = simulator.run(iterations);
    }
    run.meanIterationUs = stats.iterationUs.mean();
    run.meanComputeUs = stats.computeUs.mean();
    run.meanCommUs = stats.commUs.mean();
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
    std::vector<OpProfile> ops;
    ops.reserve(index.instances.size());
    index.appendRows(&ops, model_name, config.gpu);
    IterationProfile run{model_name, config.gpu, config.numGpus,
                         g.totalParameters()};
    simulateRun(std::make_shared<const sim::ExecPlan>(
                    sim::ExecPlan::build(g, config.gpu)),
                &index, schedule, config, iterations, ops, run);
    return {std::move(ops), std::move(run)};
}

namespace {

/**
 * One (CNN, GPU) task of the sweep: the observed k = 1 run plus the
 * run-level k = 2..maxGpus runs, all on one shared ExecPlan, writing
 * into rows the calling thread made.
 */
struct SweepUnit
{
    std::size_t modelIndex = 0;
    std::shared_ptr<const sim::ExecPlan> plan; ///< Its GPU's plan.
    std::span<OpProfile> ops;         ///< Rows of the observed k = 1 run.
    std::span<IterationProfile> runs; ///< Index k - 1.
};

/**
 * What collectProfiles prepares once per CNN on the calling thread,
 * shared by its units: the graph itself is dropped once these exist.
 */
struct ModelInputs
{
    InstanceIndex index;
    /// One plan per GPU, in hw::allGpuModels() order.
    std::vector<std::shared_ptr<const sim::ExecPlan>> plans;
    std::int64_t params = 0; ///< Trainable parameters.
};

void
executeUnit(const SweepUnit &unit, const std::string &name,
            const InstanceIndex &index,
            const util::ReservoirSchedule &schedule,
            const CollectOptions &options)
{
    const hw::GpuModel gpu = unit.plan->gpu;
    for (int k = 1; k <= static_cast<int>(unit.runs.size()); ++k) {
        // The span name is formatted only when observability is on;
        // recording never feeds back into the run, so the dataset is
        // byte-identical with obs enabled or disabled.
        std::optional<obs::ScopedSpan> span;
        if (obs::enabled())
            span.emplace(util::format("profile %s %s k=%d", name.c_str(),
                                      hw::gpuModelName(gpu).c_str(),
                                      k),
                         "profile");
        OBS_TIMER("profile.run_us");
        sim::SimConfig config;
        config.gpu = gpu;
        config.numGpus = k;
        config.gpusPerHost = options.gpusPerHost;
        config.seed = runSeed(options.seed, name, gpu, k);
        // k >= 2 is run-level only: op times match the k=1 case by
        // construction (same per-GPU batch), as in the paper.
        simulateRun(unit.plan, k == 1 ? &index : nullptr, schedule,
                    config, options.iterations, unit.ops,
                    unit.runs[static_cast<std::size_t>(k - 1)]);
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
    // Build each graph once, on this thread, and keep only what the
    // sweep reads of it: its instance index, parameter count and one
    // plan per GPU, the plans built in one walk. The graph is dropped
    // before the next one is built, so at most one is alive and no
    // worker ever touches one.
    const std::vector<hw::GpuModel> &gpu_models = hw::allGpuModels();
    std::vector<ModelInputs> inputs;
    inputs.reserve(model_names.size());
    std::size_t max_offered = 0;
    for (const auto &name : model_names) {
        const Graph g = models::buildModel(name, options.batch);
        ModelInputs &input = inputs.emplace_back(
            ModelInputs{InstanceIndex(g), {}, g.totalParameters()});
        for (sim::ExecPlan &plan : sim::ExecPlan::build(g, gpu_models))
            input.plans.push_back(
                std::make_shared<const sim::ExecPlan>(std::move(plan)));
        max_offered = std::max(max_offered, input.index.maxOccurrences);
    }
    // Every observed run replays the same reservoir draws; draw them
    // once for the longest instance stream of the sweep.
    const util::ReservoirSchedule schedule(
        kProfileSamples,
        max_offered * static_cast<std::size_t>(options.iterations));

    // Size every row here, before the fan-out, so the kept rows all
    // come from this thread's heap and no worker builds or copies one.
    // Rows are laid out in canonical (CNN, GPU, instance) and (CNN,
    // GPU, k) order, so the dataset is bit-identical for any thread
    // count. Each (CNN, GPU) unit gets the span of rows it fills; both
    // vectors are reserved to their final sizes, so no span moves.
    const int max_k = options.multiGpuRuns ? std::max(options.maxGpus, 1)
                                           : 1;
    const std::size_t gpus = gpu_models.size();
    std::size_t op_rows = 0;
    for (const ModelInputs &input : inputs)
        op_rows += input.index.instances.size() * gpus;
    ProfileDataset dataset;
    dataset.ops_.reserve(op_rows);
    dataset.iterations_.reserve(inputs.size() * gpus *
                                static_cast<std::size_t>(max_k));
    std::vector<SweepUnit> units;
    for (std::size_t m = 0; m < model_names.size(); ++m) {
        for (const auto &plan : inputs[m].plans) {
            const std::size_t op_row = dataset.ops_.size();
            const std::size_t iter_row = dataset.iterations_.size();
            inputs[m].index.appendRows(&dataset.ops_, model_names[m],
                                       plan->gpu);
            for (int k = 1; k <= max_k; ++k)
                dataset.iterations_.push_back(
                    {model_names[m], plan->gpu, k, inputs[m].params});
            units.push_back(
                {m, plan, std::span(dataset.ops_).subspan(op_row),
                 std::span(dataset.iterations_).subspan(iter_row)});
        }
    }
    // Dispatch the largest graphs first so the last units to finish
    // are the short ones.
    std::vector<std::size_t> order(units.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return units[a].plan->nodeCount() >
                                units[b].plan->nodeCount();
                     });
    auto execute = [&](std::size_t i) {
        const SweepUnit &unit = units[order[i]];
        executeUnit(unit, model_names[unit.modelIndex],
                    inputs[unit.modelIndex].index, schedule, options);
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

    for (std::size_t row = 0; row < dataset.ops_.size(); ++row)
        dataset.indexRow(row);
    for (const auto &name : model_names)
        CEER_LOG(Info) << "profiled " << name << " on "
                       << hw::allGpuModels().size() << " GPU models";
    return dataset;
}

} // namespace profile
} // namespace ceer

/**
 * @file
 * Operation-level profiler: aggregates per-instance compute-time
 * statistics over many simulated training iterations, reproducing the
 * paper's empirical-study methodology (Sec. III: 1,000 iterations per
 * CNN per GPU, statistics per {operation, input size} pair).
 */

#ifndef CEER_PROFILE_PROFILER_H
#define CEER_PROFILE_PROFILER_H

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "hw/gpu_spec.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace ceer {

namespace io {
class CbfFile;
template <class T>
class FileSchema;
}

namespace profile {

/** Capacity of every OpProfile's sample reservoir. */
constexpr std::size_t kProfileSamples = 64;

/**
 * Aggregated timings of one {op type, input sizes} instance within one
 * (CNN, GPU) profiling run.
 */
struct OpProfile
{
    std::string model;            ///< CNN name.
    hw::GpuModel gpu;             ///< GPU the run executed on.
    graph::OpType op;             ///< Operation type.
    bool onCpu = false;           ///< Device placement.
    std::vector<double> features; ///< Input-size features (bytes).
    std::size_t occurrences = 0;  ///< Graph nodes mapping to this entry.
    util::RunningStats timeUs;    ///< Per-execution compute times.
    /// Bounded samples for medians.
    util::SampleReservoir samples{kProfileSamples};

    /** Total input bytes (features[0]). */
    double inputBytes() const
    {
        return features.empty() ? 0.0 : features[0];
    }
};

/**
 * Per-(CNN, GPU, numGpus) run-level aggregate used to train and
 * validate the communication model.
 */
struct IterationProfile
{
    std::string model;            ///< CNN name.
    hw::GpuModel gpu;             ///< GPU model.
    int numGpus = 1;              ///< Data-parallel width.
    std::int64_t paramCount = 0;  ///< Trainable parameters.
    double meanIterationUs = 0.0; ///< Mean per-iteration total time.
    double meanComputeUs = 0.0;   ///< Mean compute part.
    double meanCommUs = 0.0;      ///< Mean comm part ("GPU logs").
};

/** One {op type, input sizes} instance of a graph. */
struct OpInstance
{
    graph::OpType op;             ///< Operation type.
    bool onCpu = false;           ///< Device placement.
    std::vector<double> features; ///< Input-size features (bytes).
    std::size_t occurrences = 0;  ///< Graph nodes mapping to it.
};

/**
 * A graph's nodes bucketed into op instances by opInstanceKey(), in
 * first-appearance order. It depends only on the graph, so one index
 * serves the profiling runs of every GPU.
 */
struct InstanceIndex
{
    /** Buckets the nodes of @p g. */
    explicit InstanceIndex(const graph::Graph &g);

    /**
     * Appends one row per instance to @p rows, in instance order, with
     * every column but the timings set and the reservoir storage
     * reserved, so Profiler::fill() allocates nothing.
     */
    void appendRows(std::vector<OpProfile> *rows, const std::string &model,
                    hw::GpuModel gpu) const;

    std::vector<OpInstance> instances;      ///< Distinct instances.
    std::vector<std::uint32_t> nodeInstance; ///< Node index -> instance.
    std::size_t maxOccurrences = 0;          ///< Largest occurrences.
};

/**
 * Observer that accumulates op executions per instance.
 *
 * Each instance keeps one RunningStats and one fixed block of
 * kProfileSamples reservoir slots, replayed through a shared
 * util::ReservoirSchedule, so fill() writes exactly what per-instance
 * RunningStats::add and SampleReservoir::add would have produced.
 * Bind one profiler per run; pass observer() to TrainingSimulator::run.
 */
class Profiler
{
  public:
    /**
     * @param index    Instance index of the profiled graph.
     * @param schedule Replacement draws of capacity kProfileSamples;
     *                 it must cover every offer of the run (panics
     *                 otherwise).
     *
     * @p index and @p schedule must outlive the profiler.
     */
    Profiler(const InstanceIndex &index,
             const util::ReservoirSchedule &schedule);

    // observer() hands out callbacks holding this object's address.
    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** Records one iteration's op times, indexed by node position. */
    void observe(std::span<const double> times_us);

    /** Adapter for TrainingSimulator. */
    sim::OpObserver
    observer()
    {
        return [this](std::span<const double> times_us) {
            observe(times_us);
        };
    }

    /**
     * Writes the timings and reservoir state observed so far into
     * @p rows, one per instance as InstanceIndex::appendRows() made
     * them; no other column changes and nothing is allocated.
     */
    void fill(std::span<OpProfile> rows) const;

  private:
    /** Reservoir state of one instance; the last slot is a sink. */
    struct SampleBlock
    {
        std::size_t offered = 0;
        double slots[kProfileSamples + 1] = {};
    };

    const InstanceIndex *index_;
    const util::ReservoirSchedule *schedule_;
    std::size_t iterations_ = 0;
    std::vector<util::RunningStats> stats_; ///< Per instance.
    std::vector<SampleBlock> samples_;      ///< Per instance.
};

struct CollectOptions;

/**
 * The paper's operation-level dataset: profiles across CNNs x GPUs.
 *
 * Lookups by (GPU, op type) are served from an index kept in row
 * order, so the nested (GPU x heavy op) loops in core::trainCeer avoid
 * repeated O(N) scans over the whole dataset.
 */
class ProfileDataset
{
  public:
    /** Appends profiles from one run. */
    void add(std::vector<OpProfile> profiles);

    /** Appends one run-level iteration profile. */
    void addIteration(const IterationProfile &profile);

    /** All op profiles. */
    const std::vector<OpProfile> &ops() const { return ops_; }

    /** All iteration profiles. */
    const std::vector<IterationProfile> &iterations() const
    {
        return iterations_;
    }

    /** Op profiles for one GPU model, in row order. */
    std::vector<const OpProfile *> opsFor(hw::GpuModel gpu) const;

    /** Op profiles for one (GPU, op type), in row order. */
    std::vector<const OpProfile *> opsFor(hw::GpuModel gpu,
                                          graph::OpType op) const;

    /** Mean compute time of @p op on @p gpu over all instances. */
    double meanTimeUs(hw::GpuModel gpu, graph::OpType op) const;

    /** Distinct op types present for @p gpu. */
    std::vector<graph::OpType> opTypes(hw::GpuModel gpu) const;

    /**
     * The dataset's "op" and "iter" tables, which drive both dialects
     * (docs/file_formats.md). CSV stores a rounded (count, mean,
     * stddev) summary of each op's timings and rebuilds approximate
     * moments on load; CBF stores every accumulator's exact state, so
     * its round trips are bit-exact. Every loader leaves @p dataset
     * untouched on failure and names the row, column and value.
     */
    static const io::FileSchema<ProfileDataset> &schema();

    void saveCsv(std::ostream &out) const;
    /** tryLoadCsv(), fatal on failure. */
    static ProfileDataset loadCsv(std::istream &in);
    static bool tryLoadCsv(std::istream &in, ProfileDataset *dataset,
                           std::string *error);
    void saveCbf(std::ostream &out) const;
    static bool tryLoadCbf(const io::CbfFile &file,
                           ProfileDataset *dataset, std::string *error);
    /** Either dialect, sniffed by magic bytes (io::tryLoadSniffed). */
    static bool tryLoadFile(const std::string &path,
                            ProfileDataset *dataset, std::string *error);
    /** tryLoadFile(), fatal on failure. */
    static ProfileDataset loadFile(const std::string &path);

  private:
    // Sizes ops_ and iterations_ before its fan-out, lets the sweep
    // fill the rows in place and indexes them afterwards.
    friend ProfileDataset collectProfiles(
        const std::vector<std::string> &models,
        const CollectOptions &options);

    /** Appends one op profile and indexes it. */
    void append(OpProfile profile);

    /** Adds ops_[@p row] to both indexes; rows go in row order. */
    void indexRow(std::size_t row);

    std::vector<OpProfile> ops_;
    std::vector<IterationProfile> iterations_;
    /// (gpu, op) -> indices into ops_, in row order.
    std::map<std::pair<hw::GpuModel, graph::OpType>,
             std::vector<std::size_t>>
        opIndex_;
    /// gpu -> indices into ops_, in row order.
    std::map<hw::GpuModel, std::vector<std::size_t>> gpuIndex_;
};

/**
 * Profiles one CNN on one GPU configuration, through the same observed
 * run collectProfiles() uses for k = 1.
 *
 * @param g          Training graph.
 * @param model_name CNN name for the records.
 * @param config     Simulated deployment.
 * @param iterations Training iterations to simulate.
 * @return Op profiles (replica 0) and the run-level aggregate.
 */
std::pair<std::vector<OpProfile>, IterationProfile>
profileRun(const graph::Graph &g, const std::string &model_name,
           const sim::SimConfig &config, int iterations);

/** Options for collectProfiles(). */
struct CollectOptions
{
    std::int64_t batch = 32;     ///< Per-GPU batch size.
    int iterations = 200;        ///< Iterations per (CNN, GPU) run.
    std::uint64_t seed = 42;     ///< Base RNG seed.
    int maxGpus = 4;             ///< Collect k = 1..maxGpus run levels.
    bool multiGpuRuns = true;    ///< Also run k > 1 for the comm model.
    int gpusPerHost = 8;         ///< Topology of the profiled runs.
    /**
     * Worker threads for the profiling sweep (0 = one per hardware
     * thread). The collected dataset is bit-identical for every value:
     * each (CNN, GPU, k) run seeds its own RNG from runSeed() and
     * writes rows laid out in canonical order.
     */
    int threads = 0;
};

/**
 * Deterministic per-run seed for one (CNN, GPU, k) profiling run.
 *
 * A hash-mix of the base seed and the run's identity, so the seed does
 * not depend on sweep iteration order (the historical
 * `seed + 1000 * run_index` scheme did, and could collide across base
 * seeds).
 */
std::uint64_t runSeed(std::uint64_t base_seed, const std::string &model,
                      hw::GpuModel gpu, int num_gpus);

/**
 * Runs the paper's empirical study: profiles every named CNN on all
 * four GPU models (op level at k=1; run level at k=1..maxGpus).
 *
 * The calling thread builds each CNN's graph, its instance index and
 * its four ExecPlans (one walk) and drops the graph before building
 * the next, then sizes the whole dataset; each (CNN, GPU) pair is
 * then one task on a thread pool (options.threads) that runs
 * k = 1..maxGpus on its plan and writes its numbers into its own rows. The result is identical regardless of thread count or
 * schedule.
 */
ProfileDataset collectProfiles(const std::vector<std::string> &models,
                               const CollectOptions &options);

} // namespace profile
} // namespace ceer

#endif // CEER_PROFILE_PROFILER_H

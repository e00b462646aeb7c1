/**
 * @file
 * Repo benchmark: shared declarations.
 *
 * One binary runs one workload per invocation (see perfbench/README.md
 * for the workload and metric tables). The untraced run reports the
 * end-to-end metrics; the traced run (--trace 1) records the
 * benchmark's own spans around the public calls it makes and reports
 * the per-layer metrics. Either way the last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 */

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cloud/instances.h"
#include "core/ceer_model.h"
#include "core/predictor.h"
#include "serve/protocol.h"

namespace perfbench {

using namespace ceer;

// ---------------------------------------------------------------------
// Command line and result
// ---------------------------------------------------------------------

/** Parsed command line of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string dataDir = ".bench_build/perfbench-data";
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports. */
struct RunResult
{
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Records a correctness-gate failure (one failed operation). */
    void fail(const std::string &why);
};

/** Prints the final result line (the last line of stdout). */
void printResult(const RunResult &result);

// ---------------------------------------------------------------------
// Statistics (report.cc)
// ---------------------------------------------------------------------

/** Samples that must lie beyond a published quantile. */
constexpr std::size_t kTailSamples = 10;

/** Median of @p values (0 when empty); sorts a copy. */
double median(std::vector<double> values);

/**
 * Nearest-rank quantile @p q of ascending-sorted @p sorted, published
 * only when at least kTailSamples observations lie beyond it;
 * nullopt otherwise.
 */
std::optional<double> publishedQuantile(const std::vector<double> &sorted,
                                        double q);

/** Smallest sample count for which publishedQuantile(q) publishes. */
std::size_t samplesForQuantile(double q);

/** Steady-clock seconds since an arbitrary origin. */
double nowSeconds();

/** CPU seconds (user + sys) of the whole process so far. */
double processCpuSeconds();

/** Peak resident set of this process so far, in MiB. */
double peakRssMib();

/** Host capacity: aggregate speedup k * t1 / tk of a calibrated spin. */
struct HostProbe
{
    double scaling2 = 0.0; ///< At 2 threads; reads 2 on an unstarved host.
    double scalingN = 0.0; ///< At all @p threads.
};

/**
 * Keeps @p threads threads busy for a moment, then probes the host's
 * capacity at 1, 2 and @p threads threads and prints the result. Every
 * run calls this before it sets up or times anything: on a shared
 * 4-vCPU VM an idle guest got about one core's worth of parallel
 * capacity for the first second of load.
 */
HostProbe warmAndProbeHost(int threads);

// ---------------------------------------------------------------------
// Inputs (inputs.cc): pure functions of the seed
// ---------------------------------------------------------------------

/** Instances in the serve_fleet catalog. */
constexpr std::size_t kFleetInstances = 6000;

/** Plan-cache capacity of the served ceerd (ServerOptions default). */
constexpr std::size_t kPlanCacheCapacity = 256;

/** Requests in the churn stream (replayed in order). */
constexpr std::size_t kChurnStreamLength = 1 << 16;

/** Largest per-GPU batch a churn request asks for. */
constexpr std::int64_t kChurnMaxBatch = 512;

/**
 * Skew of the churn key popularity. At 1.2 the 256 most popular of
 * the 6144 keys carry 84% of requests: the LRU plan cache then hits
 * about 3 requests in 4, so the median request is a hit and the tail
 * is a compile, while ~4000 distinct keys still cycle through it.
 */
constexpr double kChurnZipfExponent = 1.2;

/** The CNN the cold pipeline places. */
inline const char *const kPipelineTarget = "vgg_19";

/** Profiling iterations per run of the cold pipeline. */
constexpr int kPipelineIters = 200;

/** SplitMix64: the benchmark's own generator, so inputs do not move
 *  when the repo's util/random changes. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform double in [0, 1). */
    double uniform();
    /** Uniform integer in [0, n). */
    std::uint64_t below(std::uint64_t n);

  private:
    std::uint64_t state_;
};

/** The 6000-instance synthetic fleet of serve_fleet. */
cloud::InstanceCatalog fleetCatalog(std::uint64_t seed);

/**
 * The serve_hot / serve_fleet mix: the 12 zoo CNNs at batch 32, each
 * once with the cost and once with the time objective (24 requests),
 * in a seeded order.
 */
std::vector<serve::RecommendRequest> zooMix(std::uint64_t seed);

/**
 * The serve_churn stream: (model, batch, objective) drawn from a
 * Zipf(kChurnZipfExponent) law over the 12 CNNs x batch
 * 1..kChurnMaxBatch key space, ranked by a seeded permutation.
 */
std::vector<serve::RecommendRequest> churnStream(std::uint64_t seed);

/** "model:batch" — the plan-cache key a request maps to. */
std::string requestKey(const serve::RecommendRequest &request);

/** Distinct plan-cache keys in @p requests. */
std::size_t distinctKeys(const std::vector<serve::RecommendRequest> &requests);

/** The request the cold pipeline answers. */
serve::RecommendRequest pipelineRequest();

/**
 * The locally encoded reply ceerd must send for @p request: an
 * in-process core::recommend() projected and CBF-encoded exactly as
 * the server does.
 */
std::string expectedReply(const core::CeerPredictor &predictor,
                          const std::vector<cloud::GpuInstance> &catalog,
                          const serve::RecommendRequest &request);

// ---------------------------------------------------------------------
// The cold pipeline (cold_pipeline.cc)
// ---------------------------------------------------------------------

/** One cold `recommend --auto-train` pipeline and what it produced. */
struct PipelineRun
{
    core::CeerModel model;
    std::string reply;        ///< Encoded recommendation (for checking).
    double wallS = 0.0;       ///< Whole pipeline, encode excluded.
    double cpuS = 0.0;        ///< Process CPU over the same interval.
    double collectWallS = 0.0; ///< collectProfiles alone.
    double collectCpuS = 0.0;
};

/**
 * Profiles the 8-CNN training set x 4 GPUs x k=1..4 (kPipelineIters
 * iterations, base seed @p seed), trains Ceer, compiles
 * kPipelineTarget and recommends it over the AWS on-demand catalog, at
 * @p threads threads throughout. Spans carry @p request.
 */
PipelineRun runPipeline(std::uint64_t seed, int threads,
                        std::int64_t request);

// ---------------------------------------------------------------------
// Per-layer measurements for the traced run (layers.cc)
// ---------------------------------------------------------------------

/** Serial replay of the pipeline's profiling run set, layer by layer. */
struct SimReplay
{
    double runUsPerIter = 0.0;  ///< Unobserved k>=2 Simulator::run.
    double iters = 0.0;         ///< Unobserved iterations replayed.
    double observedRunMs = 0.0; ///< Median k=1 profileRun.
};
SimReplay replaySimulator(std::uint64_t seed);

/** Medians of the in-process replay of ceerd's request stages. */
struct StageReplay
{
    double decodeUs = 0.0;
    double buildUs = 0.0;
    double fingerprintUs = 0.0;
    double compileUs = 0.0;
    double planWarmUs = 0.0;
    double memoryFitsUs = 0.0;
    double lookupUs = 0.0;
    double sweepUs = 0.0;
    double sweepNsPerCandidate = 0.0;
    double encodeUs = 0.0;
    double replyBytes = 0.0;

    /** Sum of the warm-request stages (decode, lookup, sweep, encode). */
    double warmRequestUs() const
    {
        return decodeUs + lookupUs + sweepUs + encodeUs;
    }
};

/**
 * Replays @p requests through the public calls ceerd's request path is
 * made of — decode, buildModel + fingerprint, PlanCache compile (with
 * the plan warm-up and memory fits) on the first request per key,
 * tryGet after it, recommendInto, projection + encode + frame — with a
 * span around each. False when a warm lookup misses.
 */
bool replayStages(const core::CeerPredictor &predictor,
                  const std::vector<cloud::GpuInstance> &catalog,
                  const std::vector<serve::RecommendRequest> &requests,
                  StageReplay *out);

/** Median load times of a model file and the fleet catalog file. */
struct IoLoads
{
    double modelLoadMs = 0.0;
    double catalogLoadMs = 0.0;
};
bool measureLoads(const std::string &model_path,
                  const std::string &fleet_path, IoLoads *out);

/** Everything the traced run reports, in BENCHMARK.json order. */
struct LayerReport
{
    HostProbe host;
    double traceOverhead = 0.0;
    double profileShare = 0.0;
    double profileCpuShare = 0.0;
    SimReplay sim;
    double sweepWallMs = 0.0;
    double sweepCpuMs = 0.0;
    double parallelEff = 0.0;
    double trainMs = 0.0;
    StageReplay stages;
    IoLoads io;
    double transportUs = 0.0;
    double hitRatio = 0.0;
    double compilesPerKreq = 0.0;
    double allocsPerReq = 0.0;
};

/** Fills the profiling-sweep fields from the traced pipeline runs. */
void addPipelineLayers(const std::vector<PipelineRun> &traced, int threads,
                       LayerReport *report);

/** Appends every per-layer metric of @p report to @p result. */
void addLayerMetrics(const LayerReport &report, RunResult *result);

/** Prints per-layer self time and writes the Chrome trace. */
void finishTrace(const Options &options, RunResult *result);

/** Per-seed directory for generated input files (created). */
std::string seedDir(const Options &options);

/** Writes @p model as CBF to @p path; false on I/O failure. */
bool saveModel(const core::CeerModel &model, const std::string &path);

/** Writes the seed's fleet catalog as CBF to @p path. */
bool saveFleet(std::uint64_t seed, const std::string &path);

/** Worker threads the workloads run at: the host's hardware threads. */
int hostThreads();

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

RunResult runColdPipeline(const Options &options);
RunResult runServe(const Options &options);

/** Entry point of the `serve-child` role (server_child.cc). */
int serveChildMain(int argc, char **argv);

// ---------------------------------------------------------------------
// Heap-allocation counter (alloc_count.cc)
// ---------------------------------------------------------------------

/** Starts or stops counting operator-new calls, process-wide. */
void setAllocCounting(bool on);

/** operator-new calls counted so far. */
std::uint64_t allocCount();

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H

/**
 * @file
 * Shared infrastructure for the per-figure/table bench binaries.
 *
 * Every bench binary reproduces one artifact of the paper's evaluation:
 * it re-runs the empirical study on the simulated substrate (8 training
 * CNNs x 4 GPU models), trains Ceer where needed, prints the same
 * rows/series the paper reports, and emits [PASS]/[CHECK] lines against
 * the paper's stated bands.
 */

#ifndef CEER_BENCH_COMMON_H
#define CEER_BENCH_COMMON_H

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/ceer_model.h"
#include "core/predictor.h"
#include "graph/graph.h"
#include "hw/gpu_spec.h"
#include "profile/profiler.h"
#include "util/flags.h"
#include "util/table.h"

namespace ceer {
namespace bench {

/** ImageNet size used throughout the paper's evaluation (Sec. V). */
constexpr std::int64_t kImageNetSamples = 1'200'000;

/** Default per-GPU batch size (Sec. V). */
constexpr std::int64_t kDefaultBatch = 32;

/** Common bench configuration, parsed from flags. */
struct BenchConfig
{
    int iterations = 200;      ///< Profiling iterations per run.
    int evalIterations = 120;  ///< Iterations for "observed" numbers.
    std::int64_t batch = kDefaultBatch; ///< Per-GPU batch size.
    std::uint64_t seed = 42;   ///< Base RNG seed.
    int threads = 0;           ///< Profiling workers (0 = hardware).
    /**
     * Directory of the shared on-disk profile cache ("" or "none"
     * disables). The whole bench suite shares one cache: the first
     * binary profiles and saves, the rest load in milliseconds.
     */
    std::string profileCache = "build/profile-cache";

    /**
     * Metrics JSON snapshot path ("" disables). When set, the
     * observability layer is enabled for the run and the snapshot is
     * written by CheckSummary::finish() (or flushBenchMetrics()).
     */
    std::string metricsOut;
};

/**
 * Parses the standard bench flags (--iters, --eval-iters, --batch,
 * --seed, --threads, --profile-cache, --metrics-out) plus --help.
 * A binary with flags of its own defines them in @p extra first and
 * reads them from it afterwards.
 *
 * The paper profiles 1,000 iterations per run; the default here is 200
 * to keep single-core bench runs short. Pass --iters 1000 for full
 * fidelity (conclusions are unchanged).
 */
BenchConfig parseBenchFlags(int argc, char **argv,
                            util::Flags *extra = nullptr);

/** Profiles the paper's 8 training CNNs and trains Ceer. */
struct TrainedCeer
{
    profile::ProfileDataset dataset; ///< Training profiles.
    core::CeerModel model;           ///< Trained Ceer model.
};

/** Runs the empirical study + training pipeline once. */
TrainedCeer trainOnPaperTrainingSet(const BenchConfig &config);

/**
 * Runs only the profiling half of the study (the 8 training CNNs),
 * behind the shared on-disk cache (profile::collectProfilesCached; a
 * corrupt cache entry degrades to a miss and a re-profile).
 *
 * @param config   Bench configuration.
 * @param multiGpu Also collect k=2..4 run-level profiles (needed for
 *                 the communication model; skip for op-level figures).
 */
profile::ProfileDataset
collectTrainingProfiles(const BenchConfig &config, bool multiGpu);

/**
 * The 20 heavy GPU op types shown in the paper's Figs. 2-3, in a
 * stable presentation order.
 */
const std::vector<graph::OpType> &paperHeavyOps();

/**
 * Observed mean per-iteration time (microseconds) from the simulated
 * substrate.
 *
 * @param g    Training graph.
 * @param gpu  GPU model.
 * @param k    Number of GPUs.
 * @param config Bench configuration (evalIterations, seed).
 * @param salt Extra seed salt to decorrelate measurement runs.
 */
double observedIterationUs(const graph::Graph &g, hw::GpuModel gpu,
                           int k, const BenchConfig &config,
                           std::uint64_t salt = 0);

/**
 * Registers @p path as the run's --metrics-out destination and turns
 * the observability layer on when it is nonempty. parseBenchFlags
 * calls this; micro benches with their own flag sets call it directly.
 */
void setMetricsOut(const std::string &path);

/**
 * Writes the metrics snapshot to the registered --metrics-out path
 * (no-op when none was set; fatal when the file cannot be written).
 * CheckSummary::finish() calls this, so figure/table benches get the
 * artifact for free; benches without a CheckSummary call it directly.
 */
void flushBenchMetrics();

/**
 * Insertion-ordered builder for the machine-readable BENCH_*.json
 * files. Every micro bench used to hand-roll the same ostream
 * boilerplate — brace management, trailing commas, the shared
 * hardware_threads/skipped_scaling pair — four times over; this keeps
 * the keys and per-field printf formats under each bench's control
 * while the punctuation lives in one place. Values are rendered at
 * insertion time. Arrays hold objects only (one compact row per line
 * in the output), which is the only shape the bench files use.
 */
class JsonObject
{
  public:
    /** Quoted, escaped string field. */
    JsonObject &str(const std::string &key, const std::string &value);
    /** Integer field. */
    JsonObject &num(const std::string &key, std::int64_t value);
    /** Floating-point field; @p fmt is the printf format, e.g. "%.4f". */
    JsonObject &num(const std::string &key, double value,
                    const char *fmt);
    /** true/false field. */
    JsonObject &boolean(const std::string &key, bool value);
    /** Literal null field (e.g. an unresolvable tail quantile). */
    JsonObject &nul(const std::string &key);
    /** Nested object field, rendered compact on one line; @p value
     *  holds no array fields. */
    JsonObject &object(const std::string &key, const JsonObject &value);
    /** Array-of-objects field; each row is one compact line. */
    JsonObject &array(const std::string &key,
                      std::vector<JsonObject> rows);

    /** Writes the document: pretty top level, one line per array row. */
    void write(std::ostream &out) const;

  private:
    struct Field
    {
        std::string key;
        std::string scalar;           ///< Rendered token ("" for arrays).
        std::vector<JsonObject> rows; ///< Array-of-objects payload.
        bool isArray = false;
    };
    void writeCompact(std::ostream &out) const;
    std::vector<Field> fields_;
};

/**
 * Adds the scaling-context pair every micro bench reports:
 * hardware_threads and skipped_scaling. tools/check.sh reads
 * skipped_scaling before judging any speedup number, so single-core
 * hosts never fail the gate on scheduler noise.
 */
void addScalingFields(JsonObject &doc, unsigned hardwareThreads,
                      bool scalingMeaningful);

/** CPU time consumed by the calling thread, in seconds. */
double threadCpuSeconds();

/**
 * Median/min/max of @p sorted (ascending, nonempty) trials, rendered
 * as one JSON object with "%.3f" values.
 */
JsonObject spreadJson(const std::vector<double> &sorted);

/**
 * Writes @p doc to @p path ("" disables; that counts as success).
 * Returns false after a "cannot open <path>" diagnostic on stderr when
 * the file is unwritable, and prints the benches' usual
 * "wrote <path>" line on success.
 */
bool writeBenchJson(const std::string &path, const JsonObject &doc);

/** Collects [PASS]/[CHECK] outcomes and prints a final verdict line. */
class CheckSummary
{
  public:
    /** Emits one check line and records the outcome. */
    void
    check(const std::string &what, double measured, double lo, double hi)
    {
        allPassed_ &= util::printCheck(std::cout, what, measured, lo, hi);
        ++total_;
    }

    /**
     * Prints "ALL n CHECKS IN BAND" and returns 0, or a failure line
     * and returns 1 when any check fell outside its band: the
     * process exit code.
     */
    int finish() const;

  private:
    bool allPassed_ = true;
    int total_ = 0;
};

} // namespace bench
} // namespace ceer

#endif // CEER_BENCH_COMMON_H

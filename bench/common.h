/**
 * @file
 * Shared infrastructure for the bench binaries.
 *
 * Every figure/table bench reproduces one artifact of the paper's
 * evaluation: it re-runs the empirical study on the simulated
 * substrate (8 training CNNs x 4 GPU models), trains Ceer where
 * needed, prints the same rows/series the paper reports, and emits
 * [PASS]/[CHECK] lines against the paper's stated bands.
 *
 * The micro benches (bench/micro_*) time the layers of the tree
 * through one runner: timeTrials repeats a measurement kTrials times
 * and reports the median/min/max of wall and process CPU time, and
 * scalingSweep runs those trials at each thread count, checks every
 * result against the serial one and judges the speedups.
 */

#ifndef CEER_BENCH_COMMON_H
#define CEER_BENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/ceer_model.h"
#include "core/predictor.h"
#include "core/recommender.h"
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
     * written by CheckSummary::finish() (or finishBench()).
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
 * The micro benches' fixture configuration: the default study at
 * @p iterations profiling iterations, with the profile cache off so a
 * timed run never depends on what an earlier run left on disk.
 */
BenchConfig fixtureConfig(int iterations);

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
 * Flag setup of the micro benches: defines --out (default
 * @p defaultOut, '' disables) and --metrics-out on @p flags next to
 * the bench's own flags, parses the command line and registers the
 * metrics destination.
 */
void parseMicroFlags(util::Flags &flags, const std::string &defaultOut,
                     int argc, char **argv);

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
 * Adds the host's scaling context: hardware_threads and
 * skipped_scaling (true on one hardware thread, where no speedup is
 * judged).
 */
void addScalingFields(JsonObject &doc, unsigned hardwareThreads);

/**
 * A micro bench's last step: writes @p doc to @p path ("" skips the
 * file), flushes the metrics snapshot and returns the process exit
 * code: 1 when the file cannot be written or a gate of the bench
 * failed (@p ok false), else 0.
 */
int finishBench(const std::string &path, const JsonObject &doc, bool ok);

/** Bit pattern of a double (== would conflate +0.0 and -0.0). */
std::uint64_t bits(double x);

/**
 * True when two recommendations have the same winner and the same
 * evaluation list, field by field and bit for bit: the recommender's
 * determinism contract at any thread count.
 */
bool recommendationsIdentical(const core::Recommendation &a,
                              const core::Recommendation &b);

/** std::thread::hardware_concurrency(), or 1 when it is unknown. */
unsigned hardwareThreads();

/** Timed trials per measurement: odd, so the median is one trial. */
constexpr int kTrials = 9;

/**
 * Median of @p sorted (ascending, nonempty): the middle value, or the
 * mean of the middle two for an even count.
 */
double median(const std::vector<double> &sorted);

/**
 * Median/min/max of @p sorted (ascending, nonempty) trials, rendered
 * as one JSON object with "%.3f" values.
 */
JsonObject spreadJson(const std::vector<double> &sorted);

/** CPU time consumed by every thread of the process, in seconds. */
double processCpuSeconds();

/**
 * The trials of one measurement: wall and process CPU milliseconds,
 * each sorted ascending. Process CPU counts the worker threads of a
 * parallel body too, so CPU above wall means it ran in parallel.
 */
struct Trials
{
    std::vector<double> wallMs; ///< Ascending.
    std::vector<double> cpuMs;  ///< Ascending.

    /** The figure every derived rate and speedup is computed from. */
    double medianWallMs() const { return median(wallMs); }

    /** Adds "trials", "wall_ms" and "cpu_ms" (spreads) to @p doc. */
    void addTo(JsonObject &doc) const;
};

/**
 * Runs @p body kTrials times and times each run. @p check receives
 * each result after the clocks have stopped, so identity checks and
 * the result's destruction stay untimed.
 */
template <typename Body, typename Check>
Trials
timeTrials(const Body &body, const Check &check)
{
    using Clock = std::chrono::steady_clock;
    Trials trials;
    for (int t = 0; t < kTrials; ++t) {
        const double cpu_start = processCpuSeconds();
        const auto start = Clock::now();
        auto result = body();
        trials.wallMs.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      start)
                .count());
        trials.cpuMs.push_back((processCpuSeconds() - cpu_start) * 1e3);
        check(std::move(result));
    }
    std::sort(trials.wallMs.begin(), trials.wallMs.end());
    std::sort(trials.cpuMs.begin(), trials.cpuMs.end());
    return trials;
}

/** timeTrials without a check: the result is dropped untimed. */
template <typename Body>
Trials
timeTrials(const Body &body)
{
    return timeTrials(body, [](auto &&) {});
}

/** One thread count of a scaling sweep. */
struct ScalingRow
{
    int threads = 1;
    Trials trials;
    bool identical = true;    ///< Every trial matched the serial result.
    double speedup = 1.0;     ///< Serial median wall over this one's.
    bool belowSerial = false; ///< A judged row slower than serial.
};

/** A judged thread sweep; its first row is the serial one. */
struct ScalingSweep
{
    std::vector<ScalingRow> rows;
    unsigned hardwareThreads = 1;
    bool skippedScaling = false; ///< One hardware thread: nothing judged.

    /** True when every row matched the serial result. */
    bool identical() const;

    /** Number of rows flagged below serial. */
    int belowSerial() const;

    /** Prints the sweep table and a FAIL line per differing row. */
    void print(std::ostream &out) const;

    /**
     * The rows in the one row shape: threads, trials, wall_ms and
     * cpu_ms spreads, speedup, identical, below_serial.
     */
    std::vector<JsonObject> rowsJson() const;

    /**
     * Adds hardware_threads, skipped_scaling and
     * below_serial_measurements to @p doc.
     */
    void addFields(JsonObject &doc) const;
};

/**
 * Judges finished rows, serial first, without reading any clock. A
 * row's speedup is the serial median wall time over its own. A row
 * with 2..@p hardwareThreads threads and a speedup below 1.0 is below
 * serial; rows past the hardware measure scheduling, not scaling, and
 * on one hardware thread no row is judged (skippedScaling).
 */
ScalingSweep judgeSweep(std::vector<ScalingRow> rows,
                        unsigned hardwareThreads);

/**
 * The swept thread counts: 1, 2 and 4, whatever the hardware (the
 * determinism contract holds oversubscribed too), then doubling up to
 * @p maxThreads.
 */
std::vector<int> threadSweep(int maxThreads);

/**
 * Runs kTrials trials of @p run(threads) at each count in @p threads
 * (the first must be 1) and checks every trial's result against the
 * first serial one with @p same(serial, result), outside the timed
 * region. Prints the judged sweep and returns it.
 */
template <typename Run, typename Same>
ScalingSweep
scalingSweep(const std::vector<int> &threads, const Run &run,
             const Same &same)
{
    using Result = std::invoke_result_t<const Run &, int>;
    std::optional<Result> serial;
    std::vector<ScalingRow> rows;
    for (int count : threads) {
        ScalingRow row;
        row.threads = count;
        row.trials = timeTrials([&] { return run(count); },
                                [&](Result &&result) {
                                    if (!serial)
                                        serial.emplace(std::move(result));
                                    else if (!same(*serial, result))
                                        row.identical = false;
                                });
        rows.push_back(std::move(row));
    }
    ScalingSweep sweep = judgeSweep(std::move(rows), hardwareThreads());
    sweep.print(std::cout);
    return sweep;
}

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

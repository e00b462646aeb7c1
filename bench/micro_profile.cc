/**
 * @file
 * Profiling-engine throughput microbenchmark.
 *
 * Profiles a set of CNNs (default: the paper's 8-CNN training set)
 * across all four GPU models at increasing thread counts and reports
 * ops-profiled/sec plus the speedup over the serial run. The sweep's
 * unit of parallel work is one (CNN, GPU) pair, so a single CNN gives
 * only four units and its multi-thread rows cannot show scaling.
 * Each thread count is timed over kTrials runs; rows report the median
 * wall time (the speedups and the below-serial flag use it) plus the
 * median/min/max of wall and calling-thread CPU time, and the heap
 * allocations of one collectProfiles() call (counted by a replaced
 * operator new across every sweep thread). Also asserts
 * that every run produced a byte-identical dataset in CBF, which
 * carries every accumulator's exact bits (the engine's determinism
 * contract), and writes a machine-readable BENCH_profile.json so
 * future changes can track the perf trajectory.
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/alloc_count.h"
#include "bench/common.h"
#include "models/model_zoo.h"
#include "profile/profiler.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table.h"

/** Timed runs per thread count (one run swings by ~30% on a VM). */
constexpr int kTrials = 5;

int
main(int argc, char **argv)
{
    using namespace ceer;
    using Clock = std::chrono::steady_clock;

    util::Flags flags;
    flags.defineString("models", "",
                       "comma-separated CNNs to profile (default: the "
                       "paper's training set)");
    flags.defineInt("iters", 60, "profiling iterations per run");
    flags.defineInt("max-threads", 0,
                    "largest thread count to sweep (0 = hardware "
                    "threads; capped at hardware threads either way)");
    flags.defineString("out", "BENCH_profile.json",
                       "machine-readable results ('' disables)");
    flags.defineString("metrics-out", "",
                       "write a metrics JSON snapshot here (enables "
                       "observability for the run)");
    flags.parse(argc, argv);
    bench::setMetricsOut(flags.getString("metrics-out"));

    std::vector<std::string> cnns = models::trainingSetNames();
    if (!flags.getString("models").empty())
        cnns = util::split(flags.getString("models"), ',');
    const std::string model_list = util::join(cnns, ",");
    profile::CollectOptions options;
    options.iterations = static_cast<int>(flags.getInt("iters"));
    options.multiGpuRuns = true;

    // Cap the sweep at the hardware: thread counts beyond
    // hardware_concurrency() only measure scheduler contention, and on
    // a small host they used to report "speedups" below 1.0x with no
    // indication anything was wrong.
    const unsigned hardware = std::thread::hardware_concurrency();
    const int hardware_cap = static_cast<int>(hardware ? hardware : 1);
    int max_threads = static_cast<int>(flags.getInt("max-threads"));
    if (max_threads <= 0)
        max_threads = hardware_cap;
    if (max_threads > hardware_cap) {
        std::cout << "capping --max-threads " << max_threads << " at "
                  << hardware_cap << " hardware thread"
                  << (hardware_cap == 1 ? "" : "s")
                  << " (oversubscription measures scheduling, not "
                     "speedup)\n";
        max_threads = hardware_cap;
    }

    std::vector<int> sweep;
    for (int t = 1; t <= max_threads; t *= 2)
        sweep.push_back(t);
    if (sweep.back() != max_threads)
        sweep.push_back(max_threads);

    util::printBanner(std::cout,
                      "micro_profile: parallel profiling throughput (" +
                          model_list + ", " +
                          std::to_string(options.iterations) +
                          " iters/run)");
    std::cout << "hardware threads: " << hardware << "\n";

    struct Result
    {
        int threads;
        double wallSeconds; ///< Median over the trials.
        double opsPerSecond;
        double speedup;
        bool belowSerial;
        std::uint64_t allocs; ///< Median heap allocations per call.
        std::vector<double> wallMs;      ///< Sorted trials.
        std::vector<double> threadCpuMs; ///< Sorted trials.
    };
    // On a single-core host every multi-thread point measures
    // scheduling, not speedup: identity is still checked, but the
    // below-serial flag is suppressed and the JSON says so.
    const bool scaling_meaningful = hardware >= 2;
    std::vector<Result> results;
    std::string reference_cbf;
    double serial_wall = 0.0;

    const bool hooked = bench::allocHookAvailable();
    util::TablePrinter table({"threads", "median wall (s)", "min-max (s)",
                              "ops/sec", "speedup", "allocs/call",
                              "identical"});
    for (int threads : sweep) {
        options.threads = threads;
        Result r;
        double executions = 0.0;
        bool identical = true;
        std::vector<std::uint64_t> allocs;
        for (int trial = 0; trial < kTrials; ++trial) {
            const auto start = Clock::now();
            const double cpu_start = bench::threadCpuSeconds();
            bench::startAllocCount();
            const profile::ProfileDataset dataset =
                profile::collectProfiles(cnns, options);
            allocs.push_back(bench::stopAllocCount());
            r.threadCpuMs.push_back(
                (bench::threadCpuSeconds() - cpu_start) * 1e3);
            r.wallMs.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          start)
                    .count());

            // Executions observed, not instances: the real unit of
            // work.
            executions = 0.0;
            for (const auto &profile : dataset.ops())
                executions += static_cast<double>(profile.timeUs.count());

            std::ostringstream cbf;
            dataset.saveCbf(cbf);
            if (reference_cbf.empty())
                reference_cbf = cbf.str();
            identical = identical && cbf.str() == reference_cbf;
        }
        std::sort(r.wallMs.begin(), r.wallMs.end());
        std::sort(r.threadCpuMs.begin(), r.threadCpuMs.end());
        std::sort(allocs.begin(), allocs.end());
        r.allocs = allocs[allocs.size() / 2];
        const double wall = r.wallMs[r.wallMs.size() / 2] / 1e3;
        if (threads == 1)
            serial_wall = wall;

        r.threads = threads;
        r.wallSeconds = wall;
        r.opsPerSecond = executions / wall;
        r.speedup = serial_wall / wall;
        r.belowSerial =
            scaling_meaningful && threads > 1 && r.speedup < 1.0;
        results.push_back(r);
        table.addRow({std::to_string(threads),
                      util::format("%.3f", r.wallSeconds),
                      util::format("%.3f-%.3f", r.wallMs.front() / 1e3,
                                   r.wallMs.back() / 1e3),
                      util::format("%.3g", r.opsPerSecond),
                      util::format("%.2fx", r.speedup) +
                          (r.belowSerial ? " (!)" : ""),
                      hooked ? std::to_string(r.allocs) : "n/a",
                      identical ? "yes" : "NO"});
        if (r.belowSerial) {
            std::cout << "warning: " << threads
                      << " threads ran slower than serial; treat this "
                         "point as noise, not a regression\n";
        }
        if (!identical) {
            std::cerr << "FAIL: a dataset at " << threads
                      << " threads differs from the first serial one\n";
            return 1;
        }
    }
    table.print(std::cout);
    if (!scaling_meaningful) {
        std::cout << "note: single hardware thread; scaling assertions "
                     "skipped (identity still enforced)\n";
    }

    int below_serial = 0;
    for (const Result &r : results)
        below_serial += r.belowSerial ? 1 : 0;
    bench::JsonObject doc;
    doc.str("benchmark", "profile_throughput")
        .str("models", model_list)
        .num("iterations", options.iterations);
    bench::addScalingFields(doc, hardware, scaling_meaningful);
    doc.num("max_threads_swept", max_threads)
        .num("below_serial_measurements", below_serial);
    std::vector<bench::JsonObject> rows;
    for (const Result &r : results) {
        bench::JsonObject row;
        row.num("threads", r.threads)
            .num("wall_s", r.wallSeconds, "%.6f")
            .num("ops_per_sec", r.opsPerSecond, "%.1f")
            .num("speedup", r.speedup, "%.4f")
            .boolean("below_serial", r.belowSerial);
        if (hooked)
            row.num("allocs_per_call", static_cast<std::int64_t>(r.allocs));
        else
            row.nul("allocs_per_call");
        row.num("trials", kTrials)
            .object("wall_ms", bench::spreadJson(r.wallMs))
            .object("thread_cpu_ms", bench::spreadJson(r.threadCpuMs));
        rows.push_back(std::move(row));
    }
    doc.array("results", std::move(rows));
    if (!bench::writeBenchJson(flags.getString("out"), doc))
        return 1;
    bench::flushBenchMetrics();
    return 0;
}

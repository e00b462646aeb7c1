/**
 * @file
 * Profiling-engine throughput microbenchmark.
 *
 * Profiles a set of CNNs (default: the paper's 8-CNN training set)
 * across all four GPU models at increasing thread counts and reports
 * the speedup over the serial run. The sweep's unit of parallel work
 * is one (CNN, GPU) pair, so a single CNN gives only four units and
 * its multi-thread rows cannot show scaling. The rows come from
 * bench::scalingSweep: bench::kTrials runs per thread count, the
 * median/min/max of wall and process CPU time, and the speedup of the
 * medians. Each row adds the heap allocations of one collectProfiles()
 * call and the most operator-new heap it held at once (the medians
 * over its trials, counted by a replaced operator new and delete
 * across every sweep thread). Every run's dataset must be
 * byte-identical in CBF, which carries every accumulator's exact bits
 * (the engine's determinism contract). Writes BENCH_profile.json so
 * future changes can track the perf trajectory.
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "bench/alloc_count.h"
#include "bench/common.h"
#include "models/model_zoo.h"
#include "profile/profiler.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table.h"

int
main(int argc, char **argv)
{
    using namespace ceer;

    util::Flags flags;
    flags.defineString("models", "",
                       "comma-separated CNNs to profile (default: the "
                       "paper's training set)");
    flags.defineInt("iters", 60, "profiling iterations per run");
    flags.defineInt("max-threads", 0,
                    "sweep 1, 2, 4 and doubling up to this thread "
                    "count (0 = hardware threads)");
    bench::parseMicroFlags(flags, "BENCH_profile.json", argc, argv);

    std::vector<std::string> cnns = models::trainingSetNames();
    if (!flags.getString("models").empty())
        cnns = util::split(flags.getString("models"), ',');
    const std::string model_list = util::join(cnns, ",");
    profile::CollectOptions options;
    options.iterations = flags.getIntAs<int>("iters");
    options.multiGpuRuns = true;

    const unsigned hardware = bench::hardwareThreads();
    const int max_threads = flags.getInt("max-threads") > 0
                                ? flags.getIntAs<int>("max-threads")
                                : static_cast<int>(hardware);

    util::printBanner(std::cout,
                      "micro_profile: parallel profiling throughput (" +
                          model_list + ", " +
                          std::to_string(options.iterations) +
                          " iters/run)");
    std::cout << "hardware threads: " << hardware << "\n";

    const auto cbf = [](const profile::ProfileDataset &dataset) {
        std::ostringstream out;
        dataset.saveCbf(out);
        return out.str();
    };
    std::string serial_cbf;
    std::map<int, std::vector<std::uint64_t>> allocs;
    std::map<int, std::vector<std::uint64_t>> peak_bytes;
    const bench::ScalingSweep sweep = bench::scalingSweep(
        bench::threadSweep(max_threads),
        [&](int threads) {
            options.threads = threads;
            bench::startAllocCount();
            profile::ProfileDataset dataset =
                profile::collectProfiles(cnns, options);
            allocs[threads].push_back(bench::stopAllocCount());
            peak_bytes[threads].push_back(bench::peakAllocBytes());
            return dataset;
        },
        [&](const profile::ProfileDataset &serial,
            const profile::ProfileDataset &dataset) {
            if (serial_cbf.empty())
                serial_cbf = cbf(serial);
            return cbf(dataset) == serial_cbf;
        });

    const bool hooked = bench::allocHookAvailable();
    std::vector<bench::JsonObject> rows = sweep.rowsJson();
    const auto median = [](std::vector<std::uint64_t> &values) {
        std::sort(values.begin(), values.end());
        return values[values.size() / 2];
    };
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const int threads = sweep.rows[i].threads;
        if (!hooked) {
            rows[i].nul("allocs_per_call").nul("peak_heap_mb");
            continue;
        }
        const std::uint64_t count = median(allocs[threads]);
        const double peak_mb =
            static_cast<double>(median(peak_bytes[threads])) / 1e6;
        std::cout << util::format(
            "allocs/call at %d threads: %llu, peak heap %.2f MB\n",
            threads, static_cast<unsigned long long>(count), peak_mb);
        rows[i]
            .num("allocs_per_call", static_cast<std::int64_t>(count))
            .num("peak_heap_mb", peak_mb, "%.3f");
    }

    bench::JsonObject doc;
    doc.str("benchmark", "profile_throughput")
        .str("models", model_list)
        .num("iterations", options.iterations);
    sweep.addFields(doc);
    doc.boolean("identity_ok", sweep.identical())
        .array("results", std::move(rows));
    return bench::finishBench(flags.getString("out"), doc,
                              sweep.identical());
}

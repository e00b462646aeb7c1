/**
 * @file
 * Observability-layer overhead microbenchmark.
 *
 * Times the hot-path record primitives (counter add, histogram
 * record, scoped timer) with observability enabled and disabled, plus
 * the multi-threaded counter throughput that the shard layout exists
 * for. The disabled numbers are the cost every instrumented hot loop
 * pays when no one is watching (one relaxed atomic load + branch);
 * the enabled numbers are what a metrics-on run costs per event.
 * Each figure is the median of bench::kTrials trials; the contended
 * sweep comes from bench::scalingSweep. Writes BENCH_obs.json; docs/observability.md quotes these numbers.
 */

#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "obs/metrics.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace ceer;

/** One primitive's trials with observability on and off. */
struct Row
{
    std::string name;
    bench::Trials enabled;
    bench::Trials disabled;
};

} // namespace

int
main(int argc, char **argv)
{
    util::Flags flags;
    flags.defineInt("ops", 2'000'000, "operations per timed loop");
    flags.defineInt("threads", 8,
                    "largest thread count of the contended-counter "
                    "sweep");
    bench::parseMicroFlags(flags, "BENCH_obs.json", argc, argv);

    const std::int64_t ops = flags.getInt("ops");
    const int threads = static_cast<int>(flags.getInt("threads"));
    const unsigned hardware = bench::hardwareThreads();
    const auto ns_per_op = [ops](const bench::Trials &trials) {
        return trials.medianWallMs() * 1e6 / static_cast<double>(ops);
    };

    util::printBanner(std::cout,
                      "micro_obs: metrics hot-path overhead (" +
                          std::to_string(ops) + " ops/loop)");
    std::cout << "hardware threads: " << hardware << "\n";

    std::vector<Row> rows;
    const auto measure = [&](const std::string &name, auto body) {
        const auto loop = [&] {
            for (std::int64_t i = 0; i < ops; ++i)
                body();
            return ops;
        };
        Row row;
        row.name = name;
        {
            obs::ScopedEnable on(true);
            row.enabled = bench::timeTrials(loop);
        }
        {
            obs::ScopedEnable off(false);
            row.disabled = bench::timeTrials(loop);
        }
        rows.push_back(std::move(row));
    };

    measure("counter add", [] { OBS_COUNTER_INC("obs_bench.counter"); });
    measure("gauge set", [] { OBS_GAUGE_SET("obs_bench.gauge", 42.0); });
    measure("histogram record",
            [] { OBS_HISTOGRAM_RECORD("obs_bench.histogram", 17.0); });
    measure("scoped timer", [] { OBS_TIMER("obs_bench.timer_us"); });

    util::TablePrinter table(
        {"primitive", "enabled ns/op", "disabled ns/op"});
    for (const Row &row : rows)
        table.addRow({row.name,
                      util::format("%.1f", ns_per_op(row.enabled)),
                      util::format("%.1f", ns_per_op(row.disabled))});
    table.print(std::cout);

    // Contended counter: every thread hammers the same counter; the
    // cache-line-aligned shards keep the aggregate throughput from
    // collapsing when threads are added. The threads share the same
    // `ops` adds, so the speedup is the aggregate throughput gain, and
    // every run must land exactly `ops` adds in the counter.
    obs::ScopedEnable on(true);
    obs::Counter &counter = obs::counter("obs_bench.contended");
    const bench::ScalingSweep sweep = bench::scalingSweep(
        bench::threadSweep(threads),
        [&](int count) {
            const std::uint64_t before = counter.value();
            std::vector<std::thread> hammer;
            for (int i = 0; i < count; ++i) {
                const std::int64_t share =
                    ops / count + (i < ops % count ? 1 : 0);
                hammer.emplace_back([&counter, share] {
                    for (std::int64_t op = 0; op < share; ++op)
                        counter.add(1);
                });
            }
            for (std::thread &thread : hammer)
                thread.join();
            return counter.value() - before;
        },
        [](std::uint64_t serial, std::uint64_t adds) {
            return adds == serial;
        });
    const double contended_ns = ns_per_op(sweep.rows.back().trials);

    bench::JsonObject doc;
    doc.str("bench", "micro_obs").num("ops", ops);
    sweep.addFields(doc);
    std::vector<bench::JsonObject> row_docs;
    for (const Row &row : rows) {
        bench::JsonObject enabled, disabled;
        row.enabled.addTo(enabled);
        row.disabled.addTo(disabled);
        bench::JsonObject &r = row_docs.emplace_back();
        r.str("name", row.name)
            .num("enabled_ns", ns_per_op(row.enabled), "%.2f")
            .num("disabled_ns", ns_per_op(row.disabled), "%.2f")
            .object("enabled", enabled)
            .object("disabled", disabled);
    }
    doc.array("rows", std::move(row_docs))
        .array("contended_scaling", sweep.rowsJson())
        .num("contended_counter_ns", contended_ns, "%.2f")
        .num("contended_threads", sweep.rows.back().threads);
    return bench::finishBench(flags.getString("out"), doc,
                              sweep.identical());
}

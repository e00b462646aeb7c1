/**
 * @file
 * Prediction-path throughput microbenchmark.
 *
 * Measures the compiled-plan predictor (CeerPredictor::compile +
 * predictBatch) and the parallel recommender sweep against the serial
 * one, verifying the sweep's determinism contract along the way: the
 * Recommendation — winner and full evaluation list — must be
 * byte-identical at every thread count. (Bit-identity of the plan
 * itself is pinned by the scalar reference in predict_plan_test.)
 * It also times graph construction of the 12-CNN zoo at batch 32
 * (the cold cost ahead of every first-time plan compile) and fails
 * the run when a build makes more than kGraphBuildAllocBudget heap
 * allocations per node, counted by a replaced operator new.
 * Writes BENCH_ceer.json so future changes can track the perf
 * trajectory.
 *
 * Thread counts beyond the hardware are not swept: on an
 * oversubscribed host a "parallel speedup" below 1.0 is a scheduling
 * artifact, and any sub-1.0 measurement that still occurs is flagged
 * in the JSON rather than reported as a silent regression.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/alloc_count.h"
#include "bench/common.h"
#include "cloud/instances.h"
#include "core/predictor.h"
#include "core/recommender.h"
#include "core/trainer.h"
#include "models/model_zoo.h"
#include "profile/profiler.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace ceer;
using Clock = std::chrono::steady_clock;

/** Bit pattern of a double (== would conflate +0.0 and -0.0). */
std::uint64_t
bits(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/** Field-by-field bit comparison of two candidate evaluations. */
bool
evaluationsIdentical(const core::CandidateEvaluation &a,
                     const core::CandidateEvaluation &b)
{
    return a.instance.name == b.instance.name &&
           a.prediction.iterations == b.prediction.iterations &&
           bits(a.prediction.iterationUs) ==
               bits(b.prediction.iterationUs) &&
           bits(a.prediction.hours) == bits(b.prediction.hours) &&
           bits(a.costUsd) == bits(b.costUsd) &&
           a.withinHourly == b.withinHourly &&
           a.withinTotal == b.withinTotal &&
           a.fitsMemory == b.fitsMemory;
}

/** Heap allocations allowed per node of a zoo graph build. */
constexpr double kGraphBuildAllocBudget = 8.0;

/** Timed zoo builds; the block reports their median, min and max. */
constexpr int kGraphBuildTrials = 21;

/** Batch size of the timed zoo builds (the paper's default). */
constexpr std::int64_t kGraphBuildBatch = 32;

/** Builds every zoo CNN once and returns the total node count. */
std::size_t
buildZoo()
{
    std::size_t nodes = 0;
    for (const std::string &name : models::allModelNames())
        nodes += models::buildModel(name, kGraphBuildBatch).size();
    return nodes;
}

/**
 * Times kGraphBuildTrials builds of the zoo after one untimed build
 * that counts allocations. Fills @p block with the results and returns
 * false when the allocation budget is exceeded.
 */
bool
measureGraphBuild(bench::JsonObject &block)
{
    bench::startAllocCount();
    const std::size_t nodes = buildZoo();
    const std::uint64_t allocs = bench::stopAllocCount();
    const bool hooked = bench::allocHookAvailable();
    const double allocs_per_node =
        static_cast<double>(allocs) / static_cast<double>(nodes);
    const bool ok = !hooked || allocs_per_node <= kGraphBuildAllocBudget;

    std::vector<double> wall_ms, cpu_ms;
    for (int t = 0; t < kGraphBuildTrials; ++t) {
        const double cpu_start = bench::threadCpuSeconds();
        const auto start = Clock::now();
        buildZoo();
        wall_ms.push_back(std::chrono::duration<double, std::milli>(
                              Clock::now() - start)
                              .count());
        cpu_ms.push_back((bench::threadCpuSeconds() - cpu_start) * 1e3);
    }
    std::sort(wall_ms.begin(), wall_ms.end());
    std::sort(cpu_ms.begin(), cpu_ms.end());
    const double median_ms = wall_ms[wall_ms.size() / 2];
    const double us_per_node =
        median_ms * 1e3 / static_cast<double>(nodes);

    std::cout << util::format(
        "graph build (%zu CNNs, batch %lld, %zu nodes): median %.2f ms "
        "wall over %d trials, %.3f us/node\n",
        models::allModelNames().size(),
        static_cast<long long>(kGraphBuildBatch), nodes, median_ms,
        kGraphBuildTrials, us_per_node);
    if (hooked)
        std::cout << (ok ? "[PASS]" : "[FAIL]")
                  << util::format(" graph build allocates %.2f times "
                                  "per node (budget %.0f)\n",
                                  allocs_per_node,
                                  kGraphBuildAllocBudget);
    else
        std::cout << "[SKIP] graph allocation budget (sanitizer build "
                     "owns operator new)\n";

    block.num("models",
              static_cast<std::int64_t>(models::allModelNames().size()))
        .num("batch", kGraphBuildBatch)
        .num("nodes", static_cast<std::int64_t>(nodes))
        .num("trials", kGraphBuildTrials)
        .object("wall_ms", bench::spreadJson(wall_ms))
        .object("thread_cpu_ms", bench::spreadJson(cpu_ms))
        .num("us_per_node", us_per_node, "%.4f");
    if (hooked)
        block.num("allocs_per_node", allocs_per_node, "%.2f");
    else
        block.nul("allocs_per_node");
    block.num("alloc_budget", kGraphBuildAllocBudget, "%.0f")
        .boolean("alloc_budget_ok", ok);
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    util::Flags flags;
    flags.defineString("model", "resnet_101", "CNN to predict");
    flags.defineInt("iters", 2000,
                    "prediction rounds per timed run (each round "
                    "evaluates every GPU x k candidate)");
    flags.defineInt("train-iters", 30, "profiling iterations for the "
                                       "throwaway training fixture");
    flags.defineInt("catalog-copies", 64,
                    "catalog replication factor for the recommender "
                    "sweep");
    flags.defineInt("threads", 0,
                    "max swept thread count (0 = hardware)");
    flags.defineString("out", "BENCH_ceer.json",
                       "machine-readable results ('' disables)");
    flags.defineString("metrics-out", "",
                       "write a metrics JSON snapshot here (enables "
                       "observability for the run)");
    flags.parse(argc, argv);
    bench::setMetricsOut(flags.getString("metrics-out"));

    const std::string model_name = flags.getString("model");
    const int iters = static_cast<int>(flags.getInt("iters"));
    const unsigned hardware = std::thread::hardware_concurrency();
    const int max_threads =
        flags.getInt("threads") > 0
            ? static_cast<int>(flags.getInt("threads"))
            : static_cast<int>(hardware ? hardware : 1);

    util::printBanner(std::cout,
                      "micro_ceer: prediction-path throughput (" +
                          model_name + ", " + std::to_string(iters) +
                          " rounds)");
    std::cout << "hardware threads: " << hardware << "\n";

    // Before anything else allocates: the zoo's graph-build cost.
    bench::JsonObject graph_build;
    const bool graph_build_ok = measureGraphBuild(graph_build);

    profile::CollectOptions collect;
    collect.iterations = static_cast<int>(flags.getInt("train-iters"));
    const core::CeerPredictor predictor(core::trainCeer(
        profile::collectProfiles(models::trainingSetNames(), collect)));
    const graph::Graph g = models::buildModel(model_name, 32);

    // Every (GPU, k) candidate of one workload — the shape of a
    // recommender query.
    std::vector<core::PredictRequest> requests;
    for (hw::GpuModel gpu : hw::allGpuModels())
        for (int k : {1, 2, 4, 8})
            requests.push_back({gpu, k});

    // --- Compiled plan: one compile, then evaluation rounds. ---
    const auto compile_start = Clock::now();
    const core::PredictPlan plan = predictor.compile(g);
    const double compile_wall =
        std::chrono::duration<double>(Clock::now() - compile_start)
            .count();

    double compiled_checksum = 0.0;
    const auto compiled_start = Clock::now();
    for (int i = 0; i < iters; ++i) {
        for (double us : predictor.predictBatch(plan, requests))
            compiled_checksum += us;
    }
    const double compiled_wall =
        std::chrono::duration<double>(Clock::now() - compiled_start)
            .count();

    // The checksum only keeps the loop from being optimized away.
    const double rounds_per_sec_compiled = iters / compiled_wall;
    std::cout << util::format(
        "compiled plan: %.3f ms wall, %.1f rounds/sec; compile() cost: "
        "%.1f us (amortized over %d rounds); checksum %.6e\n",
        compiled_wall * 1e3, rounds_per_sec_compiled, compile_wall * 1e6,
        iters, compiled_checksum);

    // --- Recommender sweep: serial vs parallel over a big catalog. ---
    // The real AWS catalog has 16 candidates — too few for a thread
    // sweep to mean anything — so replicate it (distinct names, same
    // silicon/prices). Every copy scores identically and the serial
    // reduction keeps the first, so replication changes no answer.
    const cloud::InstanceCatalog base =
        cloud::InstanceCatalog::awsOnDemand();
    std::vector<cloud::GpuInstance> candidates;
    const int copies =
        static_cast<int>(flags.getInt("catalog-copies"));
    for (int c = 0; c < copies; ++c) {
        for (cloud::GpuInstance instance : base.instances()) {
            if (c > 0) {
                instance.name += '#';
                instance.name += std::to_string(c);
            }
            candidates.push_back(std::move(instance));
        }
    }
    core::WorkloadSpec workload{&g, 1'200'000, 32};

    std::vector<int> sweep{1, 2, 4};
    for (int t = 8; t <= max_threads; t *= 2)
        sweep.push_back(t);

    struct Result
    {
        int threads;
        double wallSeconds;
        double speedup;
        bool identical;
        bool belowSerial;
    };
    // On a single-core host every multi-thread point measures
    // scheduling, not speedup: identity is still checked, but the
    // below-serial flag is suppressed and the JSON says so.
    const bool scaling_meaningful = hardware >= 2;
    std::vector<Result> results;
    core::Recommendation reference;
    double serial_wall = 0.0;
    bool sweep_identical = true;

    util::TablePrinter sweep_table(
        {"threads", "wall (s)", "candidates/sec", "speedup",
         "identical"});
    for (int threads : sweep) {
        const auto start = Clock::now();
        const core::Recommendation recommendation = core::recommend(
            predictor, workload, candidates, core::Objective::MinCost,
            core::Constraints{}, threads);
        const double wall =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (threads == 1) {
            reference = recommendation;
            serial_wall = wall;
        }
        Result r;
        r.threads = threads;
        r.wallSeconds = wall;
        r.speedup = serial_wall / wall;
        r.identical =
            recommendation.bestIndex == reference.bestIndex &&
            recommendation.evaluations.size() ==
                reference.evaluations.size();
        if (r.identical) {
            for (std::size_t i = 0; i < reference.evaluations.size();
                 ++i) {
                if (!evaluationsIdentical(reference.evaluations[i],
                                          recommendation
                                              .evaluations[i])) {
                    r.identical = false;
                    break;
                }
            }
        }
        r.belowSerial =
            scaling_meaningful && threads > 1 && r.speedup < 1.0;
        sweep_identical &= r.identical;
        results.push_back(r);
        sweep_table.addRow(
            {std::to_string(threads), util::format("%.3f", wall),
             util::format("%.1f", candidates.size() / wall),
             util::format("%.2fx", r.speedup),
             r.identical ? "yes" : "NO"});
        if (!r.identical) {
            std::cerr << "FAIL: recommendation at " << threads
                      << " threads differs from the serial sweep\n";
        }
    }
    sweep_table.print(std::cout);
    if (!scaling_meaningful) {
        std::cout << "note: single hardware thread; scaling assertions "
                     "skipped (identity still enforced)\n";
    }

    int below_serial = 0;
    for (const Result &r : results)
        below_serial += r.belowSerial ? 1 : 0;
    bench::JsonObject doc;
    doc.str("benchmark", "prediction_path_throughput")
        .str("model", model_name)
        .num("rounds", iters)
        .num("candidates_per_round",
             static_cast<std::int64_t>(requests.size()));
    bench::addScalingFields(doc, hardware, scaling_meaningful);
    doc.num("compiled_rounds_per_sec", rounds_per_sec_compiled, "%.1f")
        .num("compile_us", compile_wall * 1e6, "%.1f")
        .num("recommender_candidates",
             static_cast<std::int64_t>(candidates.size()))
        .boolean("recommender_identity_ok", sweep_identical)
        .num("below_serial_measurements", below_serial)
        .object("graph_build", graph_build);
    std::vector<bench::JsonObject> rows;
    for (const Result &r : results) {
        bench::JsonObject row;
        row.num("threads", r.threads)
            .num("wall_s", r.wallSeconds, "%.6f")
            .num("speedup", r.speedup, "%.4f")
            .boolean("identical", r.identical)
            .boolean("below_serial", r.belowSerial);
        rows.push_back(std::move(row));
    }
    doc.array("recommender_sweep", std::move(rows));
    if (!bench::writeBenchJson(flags.getString("out"), doc))
        return 1;
    bench::flushBenchMetrics();
    return sweep_identical && graph_build_ok ? 0 : 1;
}

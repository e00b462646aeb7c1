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
 * allocations per node, counted by a replaced operator new, and
 * records the trainer's heap high-water mark on its fixture
 * (train_peak_heap_mb).
 * Writes BENCH_ceer.json so future changes can track the perf
 * trajectory.
 *
 * Every timed figure is the median of bench::kTrials trials, reported
 * with its wall and CPU spread (bench::timeTrials); the sweep rows come
 * from bench::scalingSweep, which judges speedups only up to the
 * hardware's thread count.
 */

#include <cstdint>
#include <iostream>
#include <vector>

#include "bench/alloc_count.h"
#include "bench/common.h"
#include "cloud/instances.h"
#include "core/predictor.h"
#include "core/recommender.h"
#include "core/trainer.h"
#include "models/model_zoo.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace ceer;

/** Heap allocations allowed per node of a zoo graph build. */
constexpr double kGraphBuildAllocBudget = 8.0;

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
 * Times kTrials builds of the zoo after one untimed build that counts
 * allocations. Fills @p block with the results and returns false when
 * the allocation budget is exceeded.
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

    const bench::Trials trials = bench::timeTrials(buildZoo);
    const double median_ms = trials.medianWallMs();
    const double us_per_node =
        median_ms * 1e3 / static_cast<double>(nodes);

    std::cout << util::format(
        "graph build (%zu CNNs, batch %lld, %zu nodes): median %.2f ms "
        "wall over %d trials, %.3f us/node\n",
        models::allModelNames().size(),
        static_cast<long long>(kGraphBuildBatch), nodes, median_ms,
        bench::kTrials, us_per_node);
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
        .num("nodes", static_cast<std::int64_t>(nodes));
    trials.addTo(block);
    block.num("us_per_node", us_per_node, "%.4f");
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
                    "sweep 1, 2, 4 and doubling up to this thread "
                    "count (0 = hardware)");
    bench::parseMicroFlags(flags, "BENCH_ceer.json", argc, argv);

    const std::string model_name = flags.getString("model");
    const int iters = flags.getIntAs<int>("iters");
    const unsigned hardware = bench::hardwareThreads();
    const int max_threads = flags.getInt("threads") > 0
                                ? flags.getIntAs<int>("threads")
                                : static_cast<int>(hardware);

    util::printBanner(std::cout,
                      "micro_ceer: prediction-path throughput (" +
                          model_name + ", " + std::to_string(iters) +
                          " rounds)");
    std::cout << "hardware threads: " << hardware << "\n";

    // Before anything else allocates: the zoo's graph-build cost.
    bench::JsonObject graph_build;
    const bool graph_build_ok = measureGraphBuild(graph_build);

    bench::BenchConfig fixture;
    fixture.iterations = flags.getIntAs<int>("train-iters");
    // The trainer's heap high-water mark on the fixture: the most
    // operator-new heap one trainCeer call holds at once.
    const profile::ProfileDataset dataset =
        bench::collectTrainingProfiles(fixture, true);
    bench::startAllocCount();
    core::CeerModel model = core::trainCeer(dataset);
    bench::stopAllocCount();
    const bool hooked = bench::allocHookAvailable();
    const double train_peak_mb =
        static_cast<double>(bench::peakAllocBytes()) / 1e6;
    if (hooked)
        std::cout << util::format("trainer peak heap: %.3f MB over %zu "
                                  "op rows\n",
                                  train_peak_mb, dataset.ops().size());
    const core::CeerPredictor predictor(std::move(model));
    const graph::Graph g = models::buildModel(model_name, 32);

    // Every (GPU, k) candidate of one workload — the shape of a
    // recommender query.
    std::vector<core::PredictRequest> requests;
    for (hw::GpuModel gpu : hw::allGpuModels())
        for (int k : {1, 2, 4, 8})
            requests.push_back({gpu, k});

    // --- Compiled plan: compile, then evaluation rounds. ---
    const bench::Trials compile =
        bench::timeTrials([&] { return predictor.compile(g); });
    const core::PredictPlan plan = predictor.compile(g);
    // The checksum only keeps the rounds from being optimized away.
    double checksum = 0.0;
    const bench::Trials rounds = bench::timeTrials(
        [&] {
            double sum = 0.0;
            for (int i = 0; i < iters; ++i)
                for (double us : predictor.predictBatch(plan, requests))
                    sum += us;
            return sum;
        },
        [&](double sum) { checksum += sum; });
    const double compile_us = compile.medianWallMs() * 1e3;
    const double rounds_per_sec = iters * 1e3 / rounds.medianWallMs();
    std::cout << util::format(
        "compiled plan: median %.3f ms wall per %d rounds, %.1f "
        "rounds/sec; compile() median %.1f us; checksum %.6e\n",
        rounds.medianWallMs(), iters, rounds_per_sec, compile_us,
        checksum);

    // --- Recommender sweep: serial vs parallel over a big catalog. ---
    // The real AWS catalog has 16 candidates — too few for a thread
    // sweep to mean anything — so replicate it (distinct names, same
    // silicon/prices). Every copy scores identically and the serial
    // reduction keeps the first, so replication changes no answer.
    const cloud::InstanceCatalog base =
        cloud::InstanceCatalog::awsOnDemand();
    std::vector<cloud::GpuInstance> candidates;
    const int copies = flags.getIntAs<int>("catalog-copies");
    for (int c = 0; c < copies; ++c) {
        for (cloud::GpuInstance instance : base.instances()) {
            if (c > 0) {
                instance.name += '#';
                instance.name += std::to_string(c);
            }
            candidates.push_back(std::move(instance));
        }
    }
    core::WorkloadSpec workload{&g, bench::kImageNetSamples, 32};
    const bench::ScalingSweep sweep = bench::scalingSweep(
        bench::threadSweep(max_threads),
        [&](int threads) {
            return core::recommend(predictor, workload, candidates,
                                   core::Objective::MinCost,
                                   core::Constraints{}, threads);
        },
        bench::recommendationsIdentical);

    bench::JsonObject doc;
    doc.str("benchmark", "prediction_path_throughput")
        .str("model", model_name)
        .num("rounds", iters)
        .num("candidates_per_round",
             static_cast<std::int64_t>(requests.size()));
    sweep.addFields(doc);
    bench::JsonObject compile_block, rounds_block;
    compile.addTo(compile_block);
    rounds.addTo(rounds_block);
    doc.num("compile_us", compile_us, "%.1f")
        .object("compile", compile_block)
        .num("compiled_rounds_per_sec", rounds_per_sec, "%.1f")
        .object("compiled_rounds", rounds_block);
    if (hooked)
        doc.num("train_peak_heap_mb", train_peak_mb, "%.3f");
    else
        doc.nul("train_peak_heap_mb");
    doc.num("recommender_candidates",
            static_cast<std::int64_t>(candidates.size()))
        .boolean("recommender_identity_ok", sweep.identical())
        .object("graph_build", graph_build)
        .array("recommender_sweep", sweep.rowsJson());
    return bench::finishBench(flags.getString("out"), doc,
                              sweep.identical() && graph_build_ok);
}

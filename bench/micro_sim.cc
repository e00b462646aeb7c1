/**
 * @file
 * Simulation-kernel throughput microbenchmark.
 *
 * Measures single-thread iterations/sec of TrainingSimulator's batched
 * counter-based kernel, and verifies the parallel-run determinism
 * contract: RunStats from run(n, threads) must be byte-identical at
 * every thread count. Its sample_kernel block times the kernel layer
 * alone — sim::kernel::gpuLaneUs over the GPU lanes of the training
 * set's plans on every GPU — and fails the run when any draw differs
 * from the scalar definition. Writes BENCH_sim.json so future changes
 * can track the perf trajectory.
 *
 * Every timed figure is the median of bench::kTrials trials, reported
 * with its wall and CPU spread (bench::timeTrials); the thread sweep
 * comes from bench::scalingSweep, which judges speedups only up to the
 * hardware's thread count.
 */

#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/common.h"
#include "hw/gpu_spec.h"
#include "models/model_zoo.h"
#include "sim/exec_plan.h"
#include "sim/sample_kernel.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace ceer;
using bench::bits;

/** mean/stddev/count/min/max of a RunStats triple, bit-for-bit. */
bool
statsIdentical(const sim::RunStats &a, const sim::RunStats &b)
{
    auto same = [](const util::RunningStats &x,
                   const util::RunningStats &y) {
        return x.count() == y.count() &&
               bits(x.mean()) == bits(y.mean()) &&
               bits(x.stddev()) == bits(y.stddev()) &&
               bits(x.min()) == bits(y.min()) &&
               bits(x.max()) == bits(y.max());
    };
    return same(a.iterationUs, b.iterationUs) &&
           same(a.computeUs, b.computeUs) && same(a.commUs, b.commUs);
}

/** Batch size of the kernel block's plans (the profiling default). */
constexpr std::int64_t kKernelBatch = 32;

/** Replica stream keys per plan: ~2.5M draws, ~15 ms per pass. */
constexpr int kKernelReps = 64;

/**
 * The kernel layer on its own: the GPU lanes of the training-set CNNs'
 * plans on every GPU, kKernelReps replica stream keys per plan. One
 * untimed observed pass checks every draw bit for bit against the
 * scalar definition base * fastExp(sigma * inverseNormalCdf(u)); then
 * bench::kTrials timed passes run the unobserved lane, the profiling
 * sweep's k > 1 path. Fills @p block and returns false on any
 * mismatch.
 */
bool
measureSampleKernel(bench::JsonObject &block)
{
    const std::vector<std::string> &names = models::trainingSetNames();
    std::vector<sim::ExecPlan> plans;
    for (const std::string &name : names) {
        const graph::Graph g = models::buildModel(name, kKernelBatch);
        for (hw::GpuModel gpu : hw::allGpuModels())
            plans.push_back(sim::ExecPlan::build(g, gpu));
    }
    auto streamKey = [](int rep) {
        return sim::kernel::replicaStreamKey(0x5A3B1E, rep, 0);
    };

    std::vector<double> scratch(sim::kernel::kBlock), times;
    std::uint64_t draws = 0, tail = 0, mismatches = 0;
    for (const sim::ExecPlan &plan : plans) {
        const std::size_t n = plan.gpuBaseUs.size();
        times.resize(n);
        for (int rep = 0; rep < kKernelReps; ++rep) {
            sim::kernel::gpuLaneUs(streamKey(rep), plan.gpuBaseUs.data(),
                                   plan.gpuSigma.data(), n,
                                   scratch.data(), times.data());
            const std::uint64_t lane =
                util::hashMix(streamKey(rep), sim::kernel::kGpuLane);
            for (std::size_t i = 0; i < n; ++i) {
                const double u =
                    util::uniformFromBits(util::hashMix(lane, i));
                const double want =
                    plan.gpuBaseUs[i] *
                    sim::kernel::fastExp(plan.gpuSigma[i] *
                                         util::inverseNormalCdf(u));
                mismatches += bits(times[i]) != bits(want);
                tail += u < util::kInverseNormalCdfLow ||
                        u > 1.0 - util::kInverseNormalCdfLow;
            }
            draws += n;
        }
    }

    double checksum = 0.0;
    const bench::Trials trials = bench::timeTrials(
        [&] {
            double sum = 0.0;
            for (const sim::ExecPlan &plan : plans)
                for (int rep = 0; rep < kKernelReps; ++rep)
                    sum += sim::kernel::gpuLaneUs(
                        streamKey(rep), plan.gpuBaseUs.data(),
                        plan.gpuSigma.data(), plan.gpuBaseUs.size(),
                        scratch.data(), nullptr);
            return sum;
        },
        [&](double sum) { checksum += sum; });
    const double median_ms = trials.medianWallMs();
    const double ns_per_sample =
        median_ms * 1e6 / static_cast<double>(draws);
    const double tail_fraction =
        static_cast<double>(tail) / static_cast<double>(draws);

    std::cout << util::format(
        "sample kernel (%zu CNNs x %zu GPUs, %llu draws/pass): median "
        "%.3f ms wall over %d trials, %.3f ns/sample, tail fraction "
        "%.4f; checksum %.6e\n",
        names.size(), hw::allGpuModels().size(),
        static_cast<unsigned long long>(draws), median_ms,
        bench::kTrials, ns_per_sample,
        tail_fraction, checksum);
    std::cout << (mismatches == 0 ? "[PASS]" : "[FAIL]")
              << util::format(" sample kernel matches the scalar "
                              "definition (%llu of %llu draws differ)\n",
                              static_cast<unsigned long long>(mismatches),
                              static_cast<unsigned long long>(draws));

    block.num("models", static_cast<std::int64_t>(names.size()))
        .num("gpus", static_cast<std::int64_t>(hw::allGpuModels().size()))
        .num("batch", kKernelBatch)
        .num("reps", kKernelReps)
        .num("draws", static_cast<std::int64_t>(draws));
    trials.addTo(block);
    block.num("ns_per_sample", ns_per_sample, "%.4f")
        .num("tail_fraction", tail_fraction, "%.5f")
        .boolean("identity_ok", mismatches == 0);
    return mismatches == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    util::Flags flags;
    flags.defineString("model", "inception_v1", "CNN to simulate");
    // Large enough that the batched kernel's timed region is tens of
    // milliseconds; at a few hundred iterations it finishes in well
    // under a millisecond and the rate is mostly timer noise.
    flags.defineInt("iters", 20000, "iterations per timed run");
    flags.defineInt("gpus", 1, "data-parallel replicas");
    bench::parseMicroFlags(flags, "BENCH_sim.json", argc, argv);

    const std::string model = flags.getString("model");
    const int iters = static_cast<int>(flags.getInt("iters"));
    const unsigned hardware = bench::hardwareThreads();

    sim::SimConfig config;
    config.numGpus = static_cast<int>(flags.getInt("gpus"));
    const graph::Graph g = models::buildModel(model, 32);
    const auto plan = std::make_shared<const sim::ExecPlan>(
        sim::ExecPlan::build(g, config.gpu));

    util::printBanner(std::cout,
                      "micro_sim: simulation-kernel throughput (" +
                          model + ", " + std::to_string(iters) +
                          " iterations)");
    std::cout << "hardware threads: " << hardware << "\n";

    bench::JsonObject sample_kernel;
    const bool kernel_ok = measureSampleKernel(sample_kernel);

    // --- Single-thread kernel throughput. ---
    sim::TrainingSimulator batched(plan, config);
    // The checksum keeps the loop from being optimized away.
    double checksum = 0.0;
    const bench::Trials batched_trials = bench::timeTrials(
        [&] {
            double sum = 0.0;
            for (int i = 0; i < iters; ++i)
                sum += batched.runIteration().totalUs();
            return sum;
        },
        [&](double sum) { checksum += sum; });
    const double batched_ips =
        iters * 1e3 / batched_trials.medianWallMs();
    std::cout << util::format(
        "batched kernel: median %.3f ms wall, %.1f iters/sec; checksum "
        "%.3e\n",
        batched_trials.medianWallMs(), batched_ips, checksum);

    // --- Iteration-parallel runs: identity + scaling. Each run starts
    // a fresh simulator on the shared plan, so every run draws the
    // same iterations.
    const bench::ScalingSweep sweep = bench::scalingSweep(
        bench::threadSweep(static_cast<int>(hardware)),
        [&](int threads) {
            return sim::TrainingSimulator(plan, config)
                .run(iters, threads);
        },
        statsIdentical);

    bench::JsonObject doc;
    doc.str("benchmark", "sim_kernel_throughput")
        .str("model", model)
        .num("iterations", iters)
        .num("num_gpus", config.numGpus);
    sweep.addFields(doc);
    bench::JsonObject batched_block;
    batched_trials.addTo(batched_block);
    doc.num("batched_iters_per_sec", batched_ips, "%.1f")
        .object("batched", batched_block)
        .boolean("parallel_identity_ok", sweep.identical())
        .object("sample_kernel", sample_kernel)
        .array("results", sweep.rowsJson());
    return bench::finishBench(flags.getString("out"), doc,
                              sweep.identical() && kernel_ok);
}

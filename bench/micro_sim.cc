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
 * The swept thread counts are capped at hardware_concurrency(): on an
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
using Clock = std::chrono::steady_clock;

/** Bit pattern of a double (== would conflate +0.0 and -0.0). */
std::uint64_t
bits(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

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

/** Timed passes in the sample_kernel block. */
constexpr int kKernelTrials = 21;

/** Batch size of the kernel block's plans (the profiling default). */
constexpr std::int64_t kKernelBatch = 32;

/** Replica stream keys per plan: ~2.5M draws, ~15 ms per pass. */
constexpr int kKernelReps = 64;

/**
 * The kernel layer on its own: the GPU lanes of the training-set CNNs'
 * plans on every GPU, kKernelReps replica stream keys per plan. One
 * untimed observed pass checks every draw bit for bit against the
 * scalar definition base * fastExp(sigma * inverseNormalCdf(u)); then
 * kKernelTrials timed passes run the unobserved lane, the profiling
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

    std::vector<double> wall_ms, cpu_ms;
    double checksum = 0.0;
    for (int t = 0; t < kKernelTrials; ++t) {
        const double cpu_start = bench::threadCpuSeconds();
        const auto start = Clock::now();
        for (const sim::ExecPlan &plan : plans)
            for (int rep = 0; rep < kKernelReps; ++rep)
                checksum += sim::kernel::gpuLaneUs(
                    streamKey(rep), plan.gpuBaseUs.data(),
                    plan.gpuSigma.data(), plan.gpuBaseUs.size(),
                    scratch.data(), nullptr);
        wall_ms.push_back(std::chrono::duration<double, std::milli>(
                              Clock::now() - start)
                              .count());
        cpu_ms.push_back((bench::threadCpuSeconds() - cpu_start) * 1e3);
    }
    std::sort(wall_ms.begin(), wall_ms.end());
    std::sort(cpu_ms.begin(), cpu_ms.end());
    const double ns_per_sample =
        wall_ms[wall_ms.size() / 2] * 1e6 / static_cast<double>(draws);
    const double tail_fraction =
        static_cast<double>(tail) / static_cast<double>(draws);

    std::cout << util::format(
        "sample kernel (%zu CNNs x %zu GPUs, %llu draws/pass): median "
        "%.3f ms wall over %d trials, %.3f ns/sample, tail fraction "
        "%.4f; checksum %.6e\n",
        names.size(), hw::allGpuModels().size(),
        static_cast<unsigned long long>(draws),
        wall_ms[wall_ms.size() / 2], kKernelTrials, ns_per_sample,
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
        .num("draws", static_cast<std::int64_t>(draws))
        .num("trials", kKernelTrials)
        .object("wall_ms", bench::spreadJson(wall_ms))
        .object("thread_cpu_ms", bench::spreadJson(cpu_ms))
        .num("ns_per_sample", ns_per_sample, "%.4f")
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
    // Large enough that the batched kernel's timed region is hundreds
    // of milliseconds; at a few hundred iterations it finishes in
    // single-digit milliseconds and the rate is mostly timer noise.
    flags.defineInt("iters", 20000, "iterations per timed run");
    flags.defineInt("gpus", 1, "data-parallel replicas");
    flags.defineString("out", "BENCH_sim.json",
                       "machine-readable results ('' disables)");
    flags.defineString("metrics-out", "",
                       "write a metrics JSON snapshot here (enables "
                       "observability for the run)");
    flags.parse(argc, argv);
    bench::setMetricsOut(flags.getString("metrics-out"));

    const std::string model = flags.getString("model");
    const int iters = static_cast<int>(flags.getInt("iters"));
    const unsigned hardware = std::thread::hardware_concurrency();

    sim::SimConfig config;
    config.numGpus = static_cast<int>(flags.getInt("gpus"));
    const graph::Graph g = models::buildModel(model, 32);

    util::printBanner(std::cout,
                      "micro_sim: simulation-kernel throughput (" +
                          model + ", " + std::to_string(iters) +
                          " iterations)");
    std::cout << "hardware threads: " << hardware << "\n";

    bench::JsonObject sample_kernel;
    const bool kernel_ok = measureSampleKernel(sample_kernel);

    // --- Single-thread kernel throughput. ---
    sim::TrainingSimulator batched(g, config);
    double batched_checksum = 0.0;
    const auto batched_start = Clock::now();
    for (int i = 0; i < iters; ++i)
        batched_checksum += batched.runIteration().totalUs();
    const double batched_wall =
        std::chrono::duration<double>(Clock::now() - batched_start)
            .count();

    const double batched_ips = iters / batched_wall;
    // The checksum keeps the loop from being optimized away.
    std::cout << util::format(
        "batched kernel: %.3f s wall, %.1f iters/sec; checksum %.3e\n",
        batched_wall, batched_ips, batched_checksum);

    // --- Iteration-parallel runs: identity + scaling. ---
    // Identity is always checked at 1/2/4 threads — the determinism
    // contract holds at any thread count, oversubscribed or not — but
    // larger counts are swept only up to the hardware, where speedup
    // numbers stop meaning anything (any sub-1.0 point is flagged).
    std::vector<int> sweep{1, 2, 4};
    for (int t = 8; t <= static_cast<int>(hardware ? hardware : 1);
         t *= 2)
        sweep.push_back(t);

    struct Result
    {
        int threads;
        double wallSeconds;
        double itersPerSecond;
        double speedup;
        bool identical;
        bool belowSerial;
    };
    // On a single-core host every multi-thread point measures
    // scheduling, not speedup: identity is still checked, but the
    // below-serial flag is suppressed and the JSON says so.
    const bool scaling_meaningful = hardware >= 2;
    std::vector<Result> results;
    sim::RunStats reference;
    double serial_wall = 0.0;
    bool all_identical = true;

    util::TablePrinter run_table(
        {"threads", "wall (s)", "iters/sec", "speedup", "identical"});
    for (int threads : sweep) {
        sim::TrainingSimulator simulator(g, config);
        const auto start = Clock::now();
        const sim::RunStats stats = simulator.run(iters, threads);
        const double wall =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (threads == 1) {
            reference = stats;
            serial_wall = wall;
        }
        Result r;
        r.threads = threads;
        r.wallSeconds = wall;
        r.itersPerSecond = iters / wall;
        r.speedup = serial_wall / wall;
        r.identical = statsIdentical(stats, reference);
        r.belowSerial =
            scaling_meaningful && threads > 1 && r.speedup < 1.0;
        all_identical &= r.identical;
        results.push_back(r);
        run_table.addRow(
            {std::to_string(threads), util::format("%.3f", wall),
             util::format("%.1f", r.itersPerSecond),
             util::format("%.2fx", r.speedup),
             r.identical ? "yes" : "NO"});
        if (!r.identical) {
            std::cerr << "FAIL: RunStats at " << threads
                      << " threads differ from the serial run\n";
        }
    }
    run_table.print(std::cout);
    if (!scaling_meaningful) {
        std::cout << "note: single hardware thread; scaling assertions "
                     "skipped (identity still enforced)\n";
    }

    int below_serial = 0;
    for (const Result &r : results)
        below_serial += r.belowSerial ? 1 : 0;
    bench::JsonObject doc;
    doc.str("benchmark", "sim_kernel_throughput")
        .str("model", model)
        .num("iterations", iters)
        .num("num_gpus", config.numGpus);
    bench::addScalingFields(doc, hardware, scaling_meaningful);
    doc.num("batched_iters_per_sec", batched_ips, "%.1f")
        .boolean("parallel_identity_ok", all_identical)
        .num("below_serial_measurements", below_serial)
        .object("sample_kernel", sample_kernel);
    std::vector<bench::JsonObject> rows;
    for (const Result &r : results) {
        bench::JsonObject row;
        row.num("threads", r.threads)
            .num("wall_s", r.wallSeconds, "%.6f")
            .num("iters_per_sec", r.itersPerSecond, "%.1f")
            .num("speedup", r.speedup, "%.4f")
            .boolean("identical", r.identical)
            .boolean("below_serial", r.belowSerial);
        rows.push_back(std::move(row));
    }
    doc.array("results", std::move(rows));
    if (!bench::writeBenchJson(flags.getString("out"), doc))
        return 1;
    bench::flushBenchMetrics();
    return all_identical && kernel_ok ? 0 : 1;
}

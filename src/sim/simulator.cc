#include "sim/simulator.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "sim/sample_kernel.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ceer {
namespace sim {

TrainingSimulator::TrainingSimulator(const graph::Graph &g,
                                     const SimConfig &config)
    : TrainingSimulator(
          std::make_shared<const ExecPlan>(ExecPlan::build(g, config.gpu)),
          config)
{
}

TrainingSimulator::TrainingSimulator(std::shared_ptr<const ExecPlan> plan,
                                     const SimConfig &config)
    : plan_(std::move(plan)), config_(config)
{
    if (config.numGpus < 1)
        util::panic("TrainingSimulator: numGpus must be >= 1");
    if (config.gpusPerHost < 1)
        util::panic("TrainingSimulator: gpusPerHost must be >= 1");
    if (!plan_ || plan_->gpu != config.gpu)
        util::panic("TrainingSimulator: plan was built for another GPU");
}

IterationResult
TrainingSimulator::simulateIteration(std::int64_t iteration,
                                     const OpObserver *observer,
                                     Scratch &scratch) const
{
    const ExecPlan &plan = *plan_;
    const std::size_t gpu_n = plan.gpuBaseUs.size();
    const std::size_t cpu_n = plan.cpuMeanUs.size();
    scratch.z.resize(std::min(kernel::kBlock, std::max<std::size_t>(gpu_n, 1)));

    const bool observing = observer && *observer;
    double slowest = 0.0;
    for (int r = 0; r < config_.numGpus; ++r) {
        const std::uint64_t stream_key =
            kernel::replicaStreamKey(config_.seed, iteration, r);
        if (r == 0 && observing) {
            // Observer path: materialize per-slot times, gather them
            // into graph order and accumulate in that order, so the
            // observed sum equals computeUs exactly (single replica).
            scratch.gpuTimes.resize(gpu_n);
            scratch.cpuTimes.resize(cpu_n);
            scratch.nodeTimes.resize(plan.nodeCount());
            kernel::gpuLaneUs(stream_key, plan.gpuBaseUs.data(),
                              plan.gpuSigma.data(), gpu_n,
                              scratch.z.data(), scratch.gpuTimes.data());
            kernel::cpuLaneUs(stream_key, plan.cpuMeanUs.data(), cpu_n,
                              scratch.cpuTimes.data());
            double total = 0.0;
            for (std::size_t i = 0; i < plan.nodeCount(); ++i) {
                const double t = plan.nodeOnGpu[i]
                                     ? scratch.gpuTimes[plan.nodeSlot[i]]
                                     : scratch.cpuTimes[plan.nodeSlot[i]];
                scratch.nodeTimes[i] = t;
                total += t;
            }
            (*observer)(scratch.nodeTimes);
            slowest = std::max(slowest, total);
        } else {
            // Hot path: fused block accumulation over the SoA lanes.
            const double total =
                kernel::gpuLaneUs(stream_key, plan.gpuBaseUs.data(),
                                  plan.gpuSigma.data(), gpu_n,
                                  scratch.z.data(), nullptr) +
                kernel::cpuLaneUs(stream_key, plan.cpuMeanUs.data(),
                                  cpu_n, nullptr);
            slowest = std::max(slowest, total);
        }
    }

    IterationResult result;
    result.computeUs = slowest;
    result.commUs = hw::sampleCommOverheadUs(
        config_.gpu, config_.numGpus, plan.paramBytes, plan.inputBytes,
        config_.seed, iteration, config_.gpusPerHost);
    return result;
}

IterationResult
TrainingSimulator::runIteration()
{
    return runIteration(OpObserver());
}

IterationResult
TrainingSimulator::runIteration(const OpObserver &observer)
{
    Scratch scratch;
    return simulateIteration(nextIteration_++, &observer, scratch);
}

RunStats
TrainingSimulator::run(int iterations, const OpObserver &observer)
{
    return run(iterations, 1, observer);
}

RunStats
TrainingSimulator::run(int iterations, int threads,
                       const OpObserver &observer)
{
    if (iterations < 1)
        util::panic("TrainingSimulator::run: iterations must be >= 1");
    const std::int64_t first = nextIteration_;
    nextIteration_ += iterations;

    // Wall-clock throughput gauge: the clock is read only while
    // observability is on, so the disabled path stays untouched (and
    // recording never feeds back into the simulated times).
    OBS_COUNTER_ADD("sim.iterations", iterations);
    std::chrono::steady_clock::time_point wall_start;
    if (obs::enabled())
        wall_start = std::chrono::steady_clock::now();
    const auto publish_rate = [&] {
        if (!obs::enabled())
            return;
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        if (seconds > 0.0)
            OBS_GAUGE_SET("sim.iters_per_sec", iterations / seconds);
    };

    RunStats stats;
    if (observer) {
        // Observers consume an ordered stream of replica-0 op times
        // (profiling, tracing), so the run stays serial and in
        // iteration order regardless of the requested thread count.
        Scratch scratch;
        for (int i = 0; i < iterations; ++i) {
            const IterationResult result =
                simulateIteration(first + i, &observer, scratch);
            stats.iterationUs.add(result.totalUs());
            stats.computeUs.add(result.computeUs);
            stats.commUs.add(result.commUs);
        }
        publish_rate();
        return stats;
    }

    // Unobserved runs aggregate in fixed chunks of iterations: chunk c
    // always covers the same iteration range and chunks always merge
    // in index order, so the result is bit-identical at every thread
    // count (counter-based sampling makes the per-iteration results
    // themselves order-independent).
    constexpr std::int64_t kChunk = 32;
    const std::size_t chunks = static_cast<std::size_t>(
        (iterations + kChunk - 1) / kChunk);
    std::vector<RunStats> parts(chunks);
    auto run_chunk = [&](std::size_t c) {
        OBS_TIMER("sim.chunk_us");
        Scratch scratch;
        const std::int64_t lo = first + static_cast<std::int64_t>(c) * kChunk;
        const std::int64_t hi =
            std::min<std::int64_t>(first + iterations, lo + kChunk);
        RunStats part;
        for (std::int64_t it = lo; it < hi; ++it) {
            const IterationResult result =
                simulateIteration(it, nullptr, scratch);
            part.iterationUs.add(result.totalUs());
            part.computeUs.add(result.computeUs);
            part.commUs.add(result.commUs);
        }
        parts[c] = part;
    };

    // Per-chunk cost is model-dependent (graph size times 32
    // iterations), so let the scheduler measure the first chunk and
    // coarsen: small graphs get several statistical chunks per claim,
    // big graphs stay at one.
    util::ParallelOptions parallel;
    parallel.maxThreads = util::ThreadPool::effectiveThreads(threads);
    util::ThreadPool::shared().parallelForRange(
        chunks, parallel, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t c = lo; c < hi; ++c)
                run_chunk(c);
        });

    for (const RunStats &part : parts) {
        stats.iterationUs.merge(part.iterationUs);
        stats.computeUs.merge(part.computeUs);
        stats.commUs.merge(part.commUs);
    }
    publish_rate();
    return stats;
}

TrainingRunEstimate
simulateTraining(const graph::Graph &g, const SimConfig &config,
                 std::int64_t dataset_samples, std::int64_t batch_per_gpu,
                 int sample_iterations)
{
    if (dataset_samples <= 0 || batch_per_gpu <= 0)
        util::panic("simulateTraining: dataset and batch must be > 0");
    TrainingSimulator simulator(g, config);
    const RunStats stats = simulator.run(sample_iterations);

    TrainingRunEstimate estimate;
    const std::int64_t samples_per_iteration =
        batch_per_gpu * config.numGpus;
    estimate.iterations = (dataset_samples + samples_per_iteration - 1) /
                          samples_per_iteration;
    estimate.meanIterationUs = stats.iterationUs.mean();
    estimate.totalHours = estimate.meanIterationUs *
                          static_cast<double>(estimate.iterations) /
                          3.6e9;
    return estimate;
}

} // namespace sim
} // namespace ceer

/**
 * @file
 * Training-run simulator: executes a CNN training graph on simulated
 * GPU instances, iteration by iteration.
 *
 * This substitutes for the paper's measurement substrate (TensorFlow on
 * AWS GPU instances). One iteration executes every node of the graph on
 * its device's timing model, then adds the data-parallel communication
 * overhead. With k GPUs the whole model is replicated, each replica
 * keeps the same per-GPU batch (the paper's setup), and the iteration
 * time is the slowest replica plus synchronization.
 *
 * Sampling is counter-based: every (iteration, replica, node) draw is
 * a pure function of the config seed (src/sim/sample_kernel.h), so
 * iteration i produces the same result whether it runs first, last, or
 * on another thread. run() exploits this to execute iterations in
 * parallel with bit-identical aggregate statistics at any thread
 * count.
 */

#ifndef CEER_SIM_SIMULATOR_H
#define CEER_SIM_SIMULATOR_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "hw/device_model.h"
#include "hw/interconnect.h"
#include "sim/exec_plan.h"
#include "util/stats.h"

namespace ceer {
namespace sim {

/** Configuration of one simulated training deployment. */
struct SimConfig
{
    hw::GpuModel gpu = hw::GpuModel::V100; ///< GPU silicon.
    int numGpus = 1;                       ///< Data-parallel replicas.
    /**
     * GPUs per host. The paper's instances are single-host (up to 8
     * GPUs); smaller values spread the replicas across hosts and put
     * the NIC on the synchronization path (Sec. VI limitation 2).
     */
    int gpusPerHost = 8;
    std::uint64_t seed = 42;               ///< Noise seed.
};

/**
 * Callback invoked once per observed iteration with replica 0's op
 * times.
 *
 * @param timesUs Sampled compute time in microseconds of every graph
 *                node, indexed by node position (graph order). The
 *                span is valid only for the duration of the call.
 */
using OpObserver = std::function<void(std::span<const double> timesUs)>;

/** Timing of one training iteration. */
struct IterationResult
{
    double computeUs = 0.0; ///< Slowest replica's summed op time.
    double commUs = 0.0;    ///< Communication/synchronization overhead.

    /** Total iteration latency. */
    double totalUs() const { return computeUs + commUs; }
};

/** Aggregated timings over a simulated run. */
struct RunStats
{
    util::RunningStats iterationUs; ///< Per-iteration totals.
    util::RunningStats computeUs;   ///< Per-iteration compute parts.
    util::RunningStats commUs;      ///< Per-iteration comm parts.
};

/**
 * Simulates training of one graph on one instance configuration.
 *
 * Per-node base times and noise levels are precomputed into a
 * structure-of-arrays ExecPlan, so iterations are cheap enough to run
 * the paper's 1000-iteration profiling studies by default.
 */
class TrainingSimulator
{
  public:
    /**
     * Builds the ExecPlan of @p g on config.gpu.
     *
     * @param g      Training graph (forward+backward; not retained).
     * @param config Deployment to simulate.
     */
    TrainingSimulator(const graph::Graph &g, const SimConfig &config);

    /**
     * Simulates on a prebuilt plan, which several simulators may share
     * (the plan depends only on (graph, GPU), not on numGpus or the
     * seed). Panics unless plan->gpu == config.gpu.
     */
    TrainingSimulator(std::shared_ptr<const ExecPlan> plan,
                      const SimConfig &config);

    /** Runs the next iteration without observation. */
    IterationResult runIteration();

    /** Runs the next iteration, reporting replica-0 op times to @p observer. */
    IterationResult runIteration(const OpObserver &observer);

    /**
     * Runs @p iterations iterations serially and aggregates their
     * timings. Equivalent to run(iterations, 1, observer).
     *
     * @param iterations Number of iterations (>= 1).
     * @param observer   Optional per-iteration observer (replica 0).
     */
    RunStats run(int iterations, const OpObserver &observer = nullptr);

    /**
     * Runs @p iterations iterations, fanning fixed-size chunks of
     * iterations out over @p threads threads.
     *
     * Aggregation is chunked deterministically: per-chunk RunningStats
     * merge in chunk order, so the returned RunStats is bit-identical
     * for every thread count (1 included). @p threads <= 0 uses one
     * thread per hardware thread. When @p observer is set the run is
     * forced serial and in iteration order — the observer contract
     * (profiling, tracing) is an ordered stream of replica-0 op times.
     */
    RunStats run(int iterations, int threads,
                 const OpObserver &observer = nullptr);

    /** Trainable parameter bytes of the graph (comm-model feature). */
    double paramBytes() const { return plan_->paramBytes; }

    /** Per-replica input batch bytes moved host->device per iteration. */
    double inputBytes() const { return plan_->inputBytes; }

    /** The simulated configuration. */
    const SimConfig &config() const { return config_; }

    /** The structure-of-arrays execution plan (tests, benches). */
    const ExecPlan &plan() const { return *plan_; }

  private:
    /** Reusable per-thread buffers for one iteration's samples. */
    struct Scratch
    {
        std::vector<double> z;        ///< Normal block (kernel::kBlock).
        std::vector<double> gpuTimes; ///< Observer path, GPU lane.
        std::vector<double> cpuTimes; ///< Observer path, CPU lane.
        std::vector<double> nodeTimes; ///< Observer path, graph order.
    };

    IterationResult simulateIteration(std::int64_t iteration,
                                      const OpObserver *observer,
                                      Scratch &scratch) const;

    std::shared_ptr<const ExecPlan> plan_;
    SimConfig config_;
    std::int64_t nextIteration_ = 0;
};

/** Result of simulating a full training pass over a dataset. */
struct TrainingRunEstimate
{
    std::int64_t iterations = 0;  ///< D / (k * B).
    double meanIterationUs = 0.0; ///< Measured mean per-iteration time.
    double totalHours = 0.0;      ///< iterations * mean, in hours.
};

/**
 * Simulates one epoch over a dataset and scales to total time.
 *
 * @param g                Training graph built at the per-GPU batch.
 * @param config           Deployment to simulate.
 * @param dataset_samples  Total samples D.
 * @param batch_per_gpu    Per-GPU batch size B.
 * @param sample_iterations Iterations to actually simulate for the
 *                          mean (the full count is D/(kB)).
 */
TrainingRunEstimate simulateTraining(const graph::Graph &g,
                                     const SimConfig &config,
                                     std::int64_t dataset_samples,
                                     std::int64_t batch_per_gpu,
                                     int sample_iterations = 60);

} // namespace sim
} // namespace ceer

#endif // CEER_SIM_SIMULATOR_H

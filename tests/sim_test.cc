/**
 * @file
 * Tests for the training simulator: determinism, data-parallel
 * behaviour, scaling against the paper's Fig. 6 numbers, and the
 * full-training estimate arithmetic.
 */

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace ceer {
namespace sim {
namespace {

using graph::Graph;

/** Bit pattern of a double, for byte-identity assertions. */
std::uint64_t
bitsOf(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/** Asserts two RunningStats are byte-identical, not merely close. */
void
expectStatsBitIdentical(const util::RunningStats &a,
                        const util::RunningStats &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(bitsOf(a.mean()), bitsOf(b.mean()));
    EXPECT_EQ(bitsOf(a.stddev()), bitsOf(b.stddev()));
    EXPECT_EQ(bitsOf(a.min()), bitsOf(b.min()));
    EXPECT_EQ(bitsOf(a.max()), bitsOf(b.max()));
}

const Graph &
inceptionV1()
{
    static const Graph g = models::buildInceptionV1(32);
    return g;
}

TEST(SimulatorTest, DeterministicForSameSeed)
{
    SimConfig config;
    config.seed = 99;
    TrainingSimulator a(inceptionV1(), config);
    TrainingSimulator b(inceptionV1(), config);
    for (int i = 0; i < 5; ++i) {
        const IterationResult ra = a.runIteration();
        const IterationResult rb = b.runIteration();
        EXPECT_DOUBLE_EQ(ra.computeUs, rb.computeUs);
        EXPECT_DOUBLE_EQ(ra.commUs, rb.commUs);
    }
}

TEST(SimulatorTest, DifferentSeedsDiffer)
{
    SimConfig a_config, b_config;
    a_config.seed = 1;
    b_config.seed = 2;
    TrainingSimulator a(inceptionV1(), a_config);
    TrainingSimulator b(inceptionV1(), b_config);
    EXPECT_NE(a.runIteration().computeUs, b.runIteration().computeUs);
}

TEST(SimulatorTest, ObserverSeesEveryNode)
{
    SimConfig config;
    TrainingSimulator simulator(inceptionV1(), config);
    std::size_t observed = 0;
    double observed_total = 0.0;
    std::size_t calls = 0;
    const IterationResult result = simulator.runIteration(
        [&](std::span<const double> times_us) {
            ++calls;
            for (double t : times_us) {
                ++observed;
                observed_total += t;
            }
        });
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(observed, inceptionV1().size());
    // Single replica: observed sum is exactly the compute part.
    EXPECT_DOUBLE_EQ(observed_total, result.computeUs);
}

TEST(SimulatorTest, SharedPlanMatchesOwnPlanBitForBit)
{
    // One plan serves every k of a (graph, GPU) pair: simulators on a
    // shared plan reproduce simulators that built their own, observed
    // and unobserved.
    for (hw::GpuModel gpu : hw::allGpuModels()) {
        const auto plan = std::make_shared<const ExecPlan>(
            ExecPlan::build(inceptionV1(), gpu));
        for (int k = 1; k <= 4; ++k) {
            SCOPED_TRACE(k);
            SimConfig config;
            config.gpu = gpu;
            config.numGpus = k;
            config.seed = 11 + k;
            TrainingSimulator own(inceptionV1(), config);
            TrainingSimulator shared(plan, config);
            std::vector<double> own_times, shared_times;
            const RunStats a = own.run(6, [&](std::span<const double> t) {
                own_times.insert(own_times.end(), t.begin(), t.end());
            });
            const RunStats b =
                shared.run(6, [&](std::span<const double> t) {
                    shared_times.insert(shared_times.end(), t.begin(),
                                        t.end());
                });
            EXPECT_EQ(own_times, shared_times);
            expectStatsBitIdentical(a.iterationUs, b.iterationUs);
            expectStatsBitIdentical(a.commUs, b.commUs);
            expectStatsBitIdentical(own.run(40, 2).iterationUs,
                                    shared.run(40, 2).iterationUs);
        }
    }
    SimConfig other;
    other.gpu = hw::GpuModel::K80;
    EXPECT_DEATH(TrainingSimulator(std::make_shared<const ExecPlan>(
                                       ExecPlan::build(inceptionV1(),
                                                       hw::GpuModel::T4)),
                                   other),
                 "another GPU");
}

/** Bit patterns of a lane, for byte-identity assertions. */
std::vector<std::uint64_t>
laneBits(const std::vector<double> &lane)
{
    std::vector<std::uint64_t> out;
    for (double x : lane)
        out.push_back(bitsOf(x));
    return out;
}

TEST(ExecPlanTest, OneWalkMatchesSingleGpuBuildsAcrossZoo)
{
    // The sweep builds a CNN's four plans in one node walk; each must
    // equal the plan built for its GPU alone, in every array, whatever
    // the order of the GPUs.
    std::vector<hw::GpuModel> gpus = hw::allGpuModels();
    std::vector<hw::GpuModel> reversed(gpus.rbegin(), gpus.rend());
    for (const std::string &name : models::allModelNames()) {
        SCOPED_TRACE(name);
        const Graph g = models::buildModel(name, 32);
        for (const auto &order : {gpus, reversed}) {
            const std::vector<ExecPlan> plans = ExecPlan::build(g, order);
            ASSERT_EQ(plans.size(), order.size());
            for (std::size_t p = 0; p < order.size(); ++p) {
                SCOPED_TRACE(hw::gpuModelName(order[p]));
                const ExecPlan &walked = plans[p];
                const ExecPlan alone = ExecPlan::build(g, order[p]);
                EXPECT_EQ(walked.gpu, order[p]);
                EXPECT_EQ(laneBits(walked.gpuBaseUs),
                          laneBits(alone.gpuBaseUs));
                EXPECT_EQ(laneBits(walked.gpuSigma),
                          laneBits(alone.gpuSigma));
                EXPECT_EQ(laneBits(walked.cpuMeanUs),
                          laneBits(alone.cpuMeanUs));
                EXPECT_EQ(walked.nodeSlot, alone.nodeSlot);
                EXPECT_EQ(walked.nodeOnGpu, alone.nodeOnGpu);
                EXPECT_EQ(bitsOf(walked.paramBytes),
                          bitsOf(alone.paramBytes));
                EXPECT_EQ(bitsOf(walked.inputBytes),
                          bitsOf(alone.inputBytes));
                EXPECT_EQ(walked.nodeCount(), g.size());
            }
        }
    }
}

TEST(SimulatorTest, IterationTimeRankingAcrossGpus)
{
    // P3 < G4 < G3 < P2 per-iteration (paper Sec. III).
    std::map<hw::GpuModel, double> mean;
    for (hw::GpuModel gpu : hw::allGpuModels()) {
        SimConfig config;
        config.gpu = gpu;
        TrainingSimulator simulator(inceptionV1(), config);
        mean[gpu] = simulator.run(10).iterationUs.mean();
    }
    EXPECT_LT(mean[hw::GpuModel::V100], mean[hw::GpuModel::T4]);
    EXPECT_LT(mean[hw::GpuModel::T4], mean[hw::GpuModel::M60]);
    EXPECT_LT(mean[hw::GpuModel::M60], mean[hw::GpuModel::K80]);
}

TEST(SimulatorTest, MultiGpuIterationSlowerButTrainingFaster)
{
    for (int k : {2, 3, 4}) {
        SimConfig single, multi;
        multi.numGpus = k;
        TrainingSimulator s1(inceptionV1(), single);
        TrainingSimulator sk(inceptionV1(), multi);
        const double t1 = s1.run(15).iterationUs.mean();
        const double tk = sk.run(15).iterationUs.mean();
        // Per-iteration: slower (comm overhead). Per-sample: faster.
        EXPECT_GT(tk, t1);
        EXPECT_LT(tk / static_cast<double>(k), t1);
    }
}

TEST(SimulatorTest, Fig6ScalingReductionsNearPaper)
{
    // Paper Fig. 6: training-time reductions for Inception-v1 vs 1 GPU
    // average ~35.8% (k=2), ~46.6% (k=3), ~53.6% (k=4) across GPUs.
    double reduction[3] = {0, 0, 0};
    for (hw::GpuModel gpu : hw::allGpuModels()) {
        SimConfig config;
        config.gpu = gpu;
        TrainingSimulator s1(inceptionV1(), config);
        const double t1 = s1.run(25).iterationUs.mean();
        for (int k = 2; k <= 4; ++k) {
            SimConfig multi = config;
            multi.numGpus = k;
            TrainingSimulator sk(inceptionV1(), multi);
            const double tk = sk.run(25).iterationUs.mean();
            reduction[k - 2] += 1.0 - tk / (k * t1);
        }
    }
    for (auto &value : reduction)
        value /= 4.0;
    EXPECT_NEAR(reduction[0], 0.358, 0.06);
    EXPECT_NEAR(reduction[1], 0.466, 0.06);
    EXPECT_NEAR(reduction[2], 0.536, 0.06);
}

TEST(SimulatorTest, ParamAndInputBytesExposed)
{
    SimConfig config;
    TrainingSimulator simulator(inceptionV1(), config);
    EXPECT_DOUBLE_EQ(
        simulator.paramBytes(),
        static_cast<double>(inceptionV1().totalParameters()) * 4.0);
    // Input batch: 32 x 224 x 224 x 3 floats plus the tiny label
    // vector (all graph tensors are fp32-sized here).
    const double image_bytes = 32.0 * 224 * 224 * 3 * 4;
    EXPECT_NEAR(simulator.inputBytes(), image_bytes, 300.0);
}

TEST(SimulatorTest, MeanIterationTracksSampledMean)
{
    // The noise is centred: sampled iterations average out near the
    // noise-free sum of the plan's lane means plus the mean comm.
    SimConfig config;
    const ExecPlan plan = ExecPlan::build(inceptionV1(), config.gpu);
    double analytic = 0.0;
    for (double t : plan.gpuBaseUs)
        analytic += t;
    for (double t : plan.cpuMeanUs)
        analytic += t;
    analytic += hw::commOverheadUs(config.gpu, config.numGpus,
                                   plan.paramBytes, plan.inputBytes,
                                   config.gpusPerHost);
    TrainingSimulator simulator(inceptionV1(), config);
    const double sampled = simulator.run(40).iterationUs.mean();
    EXPECT_NEAR(sampled, analytic, 0.06 * analytic);
}

TEST(SimulateTrainingTest, IterationCountArithmetic)
{
    SimConfig config;
    config.numGpus = 4;
    const TrainingRunEstimate estimate =
        simulateTraining(inceptionV1(), config, 6400, 32, 10);
    // 6400 samples / (4 GPUs * batch 32) = 50 iterations.
    EXPECT_EQ(estimate.iterations, 50);
    EXPECT_NEAR(estimate.totalHours,
                estimate.meanIterationUs * 50 / 3.6e9, 1e-12);
}

TEST(SimulateTrainingTest, RoundsUpPartialIterations)
{
    SimConfig config;
    const TrainingRunEstimate estimate =
        simulateTraining(inceptionV1(), config, 100, 32, 4);
    EXPECT_EQ(estimate.iterations, 4); // ceil(100/32).
}

TEST(SimulatorTest, ParallelRunIsByteIdenticalToSerial)
{
    // The determinism contract of the counter-based kernel: RunStats
    // from run(n, threads) are byte-identical at every thread count,
    // including counts above the hardware (iterations are chunked and
    // merged in a fixed order regardless of which thread ran what).
    SimConfig config;
    config.seed = 1234;
    config.numGpus = 2;
    const int iters = 97; // deliberately not a multiple of the chunk
    TrainingSimulator serial(inceptionV1(), config);
    const RunStats reference = serial.run(iters, 1);
    for (int threads : {2, 4, 8}) {
        TrainingSimulator parallel(inceptionV1(), config);
        const RunStats stats = parallel.run(iters, threads);
        SCOPED_TRACE(threads);
        expectStatsBitIdentical(stats.iterationUs, reference.iterationUs);
        expectStatsBitIdentical(stats.computeUs, reference.computeUs);
        expectStatsBitIdentical(stats.commUs, reference.commUs);
    }
}

TEST(SimulatorTest, RunIsByteIdenticalWithObservabilityOn)
{
    // Instrumentation must never feed back into the computation: the
    // same run with metrics recording enabled reproduces the disabled
    // run bit for bit, at every thread count.
    SimConfig config;
    config.seed = 4242;
    config.numGpus = 2;
    const int iters = 61;
    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(threads);
        RunStats off_stats, on_stats;
        {
            obs::ScopedEnable off(false);
            TrainingSimulator simulator(inceptionV1(), config);
            off_stats = simulator.run(iters, threads);
        }
        {
            obs::ScopedEnable on(true);
            TrainingSimulator simulator(inceptionV1(), config);
            on_stats = simulator.run(iters, threads);
        }
        expectStatsBitIdentical(on_stats.iterationUs,
                                off_stats.iterationUs);
        expectStatsBitIdentical(on_stats.computeUs,
                                off_stats.computeUs);
        expectStatsBitIdentical(on_stats.commUs, off_stats.commUs);
    }
}

TEST(SimulatorTest, InvalidConfigDies)
{
    SimConfig config;
    config.numGpus = 0;
    EXPECT_DEATH(TrainingSimulator(inceptionV1(), config), "numGpus");
    SimConfig ok;
    TrainingSimulator simulator(inceptionV1(), ok);
    EXPECT_DEATH(simulator.run(0), "iterations");
}

} // namespace
} // namespace sim
} // namespace ceer

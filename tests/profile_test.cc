/**
 * @file
 * Tests for the profiling layer: feature extraction, per-instance
 * aggregation, dataset queries, CSV round-trip, and the paper-level
 * properties of collected profiles (heavy-op variability, light-op
 * contribution).
 */

#include <bit>
#include <sstream>

#include <gtest/gtest.h>

#include "io/cbf.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "profile/features.h"
#include "profile/profiler.h"

namespace ceer {
namespace profile {
namespace {

using graph::Graph;
using graph::OpType;

/** Small dataset fixture shared by the pricier tests. */
const ProfileDataset &
smallDataset()
{
    static const ProfileDataset dataset = [] {
        CollectOptions options;
        options.iterations = 30;
        options.maxGpus = 2;
        return collectProfiles({"inception_v1", "vgg_11"}, options);
    }();
    return dataset;
}

TEST(FeaturesTest, ShapeAndContent)
{
    const Graph g = models::buildInceptionV1(8);
    for (const auto &node : g.nodes()) {
        const auto features = opFeatures(node);
        ASSERT_EQ(features.size(), kNumOpFeatures);
        EXPECT_DOUBLE_EQ(features[0],
                         static_cast<double>(node.inputBytes()));
        if (!node.inputShapes.empty()) {
            EXPECT_DOUBLE_EQ(
                features[1],
                static_cast<double>(node.inputShapes[0].numBytes()));
        }
        EXPECT_GE(features[3], 0.0);
    }
}

TEST(FeaturesTest, InstanceKeyGroupsIdenticalOps)
{
    const Graph g = models::buildVgg(16, 8);
    // VGG-16 stage 4 and 5 convs share shapes: keys must collide for
    // identical instances and differ across types.
    std::map<std::string, int> keys;
    for (const auto &node : g.nodes())
        ++keys[opInstanceKey(node)];
    EXPECT_LT(keys.size(), g.size());
    bool found_repeat = false;
    for (const auto &[key, count] : keys)
        found_repeat |= count > 1;
    EXPECT_TRUE(found_repeat);
}

TEST(ProfilerTest, AggregatesEveryExecution)
{
    const Graph g = models::buildInceptionV1(8);
    sim::SimConfig config;
    auto [profiles, run] = profileRun(g, "inception_v1", config, 12);

    std::size_t occurrences = 0;
    std::size_t executions = 0;
    for (const auto &profile : profiles) {
        occurrences += profile.occurrences;
        executions += profile.timeUs.count();
        EXPECT_GT(profile.timeUs.mean(), 0.0);
        EXPECT_EQ(profile.timeUs.count(),
                  profile.occurrences * 12);
    }
    EXPECT_EQ(occurrences, g.size());
    EXPECT_EQ(executions, g.size() * 12);
    EXPECT_EQ(run.paramCount, g.totalParameters());
    EXPECT_GT(run.meanIterationUs, 0.0);
    EXPECT_GT(run.meanCommUs, 0.0);
    EXPECT_NEAR(run.meanIterationUs,
                run.meanComputeUs + run.meanCommUs, 1e-6);
}

TEST(ProfilerTest, CompactSlotsMatchPerInstanceAccumulators)
{
    // The rows the profiler accumulates into, their reservoirs replayed
    // through the shared schedule, must equal one RunningStats plus one
    // SampleReservoir per instance fed through add(), bit for bit. 100
    // iterations take every instance past the 64-sample capacity.
    const Graph g = models::buildResNetV2(50, 8);
    const InstanceIndex index(g);
    const util::ReservoirSchedule schedule(
        kProfileSamples, index.maxOccurrences * 100);
    std::vector<util::RunningStats> stats(index.instances.size());
    std::vector<util::SampleReservoir> samples(
        index.instances.size(), util::SampleReservoir(kProfileSamples));
    std::vector<OpProfile> profiles;
    index.appendRows(&profiles, "resnet_50", hw::GpuModel::T4);
    Profiler profiler(index, schedule, profiles);
    sim::SimConfig config;
    config.gpu = hw::GpuModel::T4;
    sim::TrainingSimulator simulator(g, config);
    simulator.run(100, [&](std::span<const double> times_us) {
        profiler.observe(times_us);
        for (std::size_t i = 0; i < times_us.size(); ++i) {
            stats[index.nodeInstance[i]].add(times_us[i]);
            samples[index.nodeInstance[i]].add(times_us[i]);
        }
    });

    ASSERT_EQ(profiles.size(), index.instances.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const OpProfile &profile = profiles[i];
        EXPECT_EQ(profile.model, "resnet_50");
        EXPECT_EQ(profile.gpu, hw::GpuModel::T4);
        EXPECT_EQ(profile.occurrences, index.instances[i].occurrences);
        EXPECT_EQ(profile.timeUs.count(), stats[i].count());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(profile.timeUs.mean()),
                  std::bit_cast<std::uint64_t>(stats[i].mean()));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      profile.timeUs.sumSquaredDeviations()),
                  std::bit_cast<std::uint64_t>(
                      stats[i].sumSquaredDeviations()));
        EXPECT_EQ(profile.timeUs.min(), stats[i].min());
        EXPECT_EQ(profile.timeUs.max(), stats[i].max());
        EXPECT_GT(profile.samples.offered(), kProfileSamples);
        EXPECT_EQ(profile.samples.offered(), samples[i].offered());
        EXPECT_EQ(profile.samples.rngState(), samples[i].rngState());
        EXPECT_EQ(profile.samples.samples(), samples[i].samples());
    }
}

TEST(ProfilerTest, ShortScheduleOrWrongSizeDies)
{
    const Graph g = models::buildAlexNet(4);
    const InstanceIndex index(g);
    const std::vector<double> times(g.size(), 1.0);
    // The schedule covers one iteration; the second must not run off
    // its end.
    const util::ReservoirSchedule schedule(kProfileSamples,
                                           index.maxOccurrences);
    std::vector<OpProfile> rows;
    index.appendRows(&rows, "alexnet", hw::GpuModel::K80);
    Profiler profiler(index, schedule, rows);
    profiler.observe(times);
    EXPECT_DEATH(profiler.observe(times), "schedule too short");

    std::vector<OpProfile> fresh;
    index.appendRows(&fresh, "alexnet", hw::GpuModel::K80);
    Profiler sized(index, schedule, fresh);
    const std::vector<double> wrong(g.size() + 1, 1.0);
    EXPECT_DEATH(sized.observe(wrong), "do not match");
}

TEST(ProfilerTest, RowsThatDoNotFitTheRunDie)
{
    // The profiler accumulates into the rows it is given, so they must
    // be one empty row per instance with the schedule's capacity.
    const Graph g = models::buildAlexNet(4);
    const InstanceIndex index(g);
    const util::ReservoirSchedule schedule(kProfileSamples,
                                           index.maxOccurrences);
    std::vector<OpProfile> rows;
    index.appendRows(&rows, "alexnet", hw::GpuModel::K80);
    EXPECT_DEATH(Profiler(index, schedule,
                          std::span(rows).first(rows.size() - 1)),
                 "rows do not match");
    rows.back().timeUs.add(1.0);
    EXPECT_DEATH(Profiler(index, schedule, rows), "must be empty");
    rows.back() = OpProfile{};
    rows.back().samples = util::SampleReservoir(kProfileSamples + 1);
    EXPECT_DEATH(Profiler(index, schedule, rows), "must be empty");
    const util::ReservoirSchedule narrow(kProfileSamples - 1, 100);
    EXPECT_DEATH(Profiler(index, narrow, rows), "wrong capacity");
}

TEST(ProfilerTest, HeavyInstancesHaveLowVariability)
{
    const Graph g = models::buildVgg(11, 32);
    sim::SimConfig config;
    config.gpu = hw::GpuModel::K80;
    auto [profiles, run] = profileRun(g, "vgg_11", config, 60);

    // Paper Fig. 5: for heavy instances (>= 0.5ms on P2), ~95% have
    // normalized stddev < 0.1.
    std::size_t heavy = 0, low_var = 0;
    for (const auto &profile : profiles) {
        if (profile.onCpu || profile.timeUs.mean() < 500.0)
            continue;
        ++heavy;
        low_var += profile.timeUs.normalizedStddev() < 0.1;
    }
    ASSERT_GT(heavy, 10u);
    EXPECT_GE(static_cast<double>(low_var) / static_cast<double>(heavy),
              0.8);
}

TEST(ProfilerTest, CpuOpsHaveHighVariability)
{
    const Graph g = models::buildAlexNet(32);
    sim::SimConfig config;
    auto [profiles, run] = profileRun(g, "alexnet", config, 80);
    for (const auto &profile : profiles) {
        if (!profile.onCpu)
            continue;
        EXPECT_GT(profile.timeUs.normalizedStddev(), 0.25)
            << graph::opTypeName(profile.op);
    }
}

TEST(DatasetTest, QueriesFilterCorrectly)
{
    const ProfileDataset &dataset = smallDataset();
    const auto v100_ops = dataset.opsFor(hw::GpuModel::V100);
    ASSERT_FALSE(v100_ops.empty());
    for (const auto *profile : v100_ops)
        EXPECT_EQ(profile->gpu, hw::GpuModel::V100);

    const auto convs =
        dataset.opsFor(hw::GpuModel::K80, OpType::Conv2D);
    ASSERT_FALSE(convs.empty());
    for (const auto *profile : convs)
        EXPECT_EQ(profile->op, OpType::Conv2D);

    EXPECT_GT(dataset.meanTimeUs(hw::GpuModel::K80, OpType::Conv2D),
              500.0);
    EXPECT_FALSE(dataset.opTypes(hw::GpuModel::T4).empty());
}

TEST(DatasetTest, IterationProfilesCoverMultiGpu)
{
    const ProfileDataset &dataset = smallDataset();
    // 2 models x 4 GPUs x k in {1, 2}.
    EXPECT_EQ(dataset.iterations().size(), 2u * 4 * 2);
    for (const auto &run : dataset.iterations()) {
        EXPECT_GE(run.numGpus, 1);
        EXPECT_LE(run.numGpus, 2);
        EXPECT_GT(run.meanIterationUs, 0.0);
    }
}

TEST(DatasetTest, MultiGpuIterationsAreSlower)
{
    const ProfileDataset &dataset = smallDataset();
    std::map<std::pair<std::string, int>, double> by_key;
    for (const auto &run : dataset.iterations()) {
        if (run.gpu == hw::GpuModel::V100)
            by_key[{run.model, run.numGpus}] = run.meanIterationUs;
    }
    EXPECT_GT((by_key[{"inception_v1", 2}]),
              (by_key[{"inception_v1", 1}]));
    EXPECT_GT((by_key[{"vgg_11", 2}]), (by_key[{"vgg_11", 1}]));
}

TEST(DatasetTest, CsvRoundTripPreservesContent)
{
    const ProfileDataset &dataset = smallDataset();
    std::stringstream buffer;
    dataset.saveCsv(buffer);
    const ProfileDataset loaded = ProfileDataset::loadCsv(buffer);

    ASSERT_EQ(loaded.ops().size(), dataset.ops().size());
    for (std::size_t i = 0; i < loaded.ops().size(); ++i) {
        const OpProfile &original = dataset.ops()[i];
        const OpProfile &restored = loaded.ops()[i];
        EXPECT_EQ(restored.model, original.model);
        EXPECT_EQ(restored.gpu, original.gpu);
        EXPECT_EQ(restored.op, original.op);
        EXPECT_EQ(restored.onCpu, original.onCpu);
        EXPECT_EQ(restored.occurrences, original.occurrences);
        EXPECT_EQ(restored.features, original.features);
        EXPECT_EQ(restored.timeUs.count(), original.timeUs.count());
        EXPECT_NEAR(restored.timeUs.mean(), original.timeUs.mean(),
                    1e-6 * original.timeUs.mean() + 1e-9);
        EXPECT_NEAR(restored.timeUs.stddev(), original.timeUs.stddev(),
                    0.02 * original.timeUs.stddev() + 1e-9);
    }
}

TEST(DatasetTest, CsvRoundTripPreservesIterationRows)
{
    const ProfileDataset &dataset = smallDataset();
    std::stringstream buffer;
    dataset.saveCsv(buffer);
    const ProfileDataset loaded = ProfileDataset::loadCsv(buffer);

    ASSERT_EQ(loaded.iterations().size(), dataset.iterations().size());
    for (std::size_t i = 0; i < loaded.iterations().size(); ++i) {
        const IterationProfile &original = dataset.iterations()[i];
        const IterationProfile &restored = loaded.iterations()[i];
        EXPECT_EQ(restored.model, original.model);
        EXPECT_EQ(restored.gpu, original.gpu);
        EXPECT_EQ(restored.numGpus, original.numGpus);
        EXPECT_EQ(restored.paramCount, original.paramCount);
        EXPECT_NEAR(restored.meanIterationUs, original.meanIterationUs,
                    1e-6 * original.meanIterationUs);
        EXPECT_NEAR(restored.meanCommUs, original.meanCommUs,
                    1e-6 * original.meanCommUs + 1e-9);
    }
}

TEST(SeedingTest, RunSeedsAreOrderIndependentAndCollisionFree)
{
    // The run seed is a pure function of (base, model, gpu, k): no
    // dependence on sweep order, and no collisions across the sweep
    // grid or across nearby base seeds (the historical
    // `base + 1000 * run_index` scheme had both defects).
    std::set<std::uint64_t> seeds;
    std::size_t combos = 0;
    for (std::uint64_t base : {0ull, 1ull, 42ull, 43ull, 1000042ull}) {
        for (const char *model : {"alexnet", "vgg_11", "inception_v1"}) {
            for (hw::GpuModel gpu : hw::allGpuModels()) {
                for (int k = 1; k <= 8; ++k) {
                    seeds.insert(runSeed(base, model, gpu, k));
                    ++combos;
                }
            }
        }
    }
    EXPECT_EQ(seeds.size(), combos);
    EXPECT_EQ(runSeed(42, "alexnet", hw::GpuModel::V100, 2),
              runSeed(42, "alexnet", hw::GpuModel::V100, 2));
}

TEST(SeedingTest, ParallelCollectionMatchesSerialByteForByte)
{
    CollectOptions options;
    options.iterations = 12;
    options.maxGpus = 2;

    // CBF carries every accumulator's exact bits; CSV rounds, so it
    // could hide a last-bit difference.
    options.threads = 1;
    const ProfileDataset serial =
        collectProfiles({"alexnet", "vgg_11"}, options);
    std::stringstream serial_cbf;
    serial.saveCbf(serial_cbf);

    options.threads = 4;
    const ProfileDataset parallel =
        collectProfiles({"alexnet", "vgg_11"}, options);
    std::stringstream parallel_cbf;
    parallel.saveCbf(parallel_cbf);

    EXPECT_EQ(serial_cbf.str(), parallel_cbf.str());
}

TEST(SeedingTest, CollectionMatchesGoldenDigest)
{
    // Pins the collected dataset's exact bytes. 80 iterations offer
    // every instance more than the reservoir's 64 slots, so the
    // replacement draws are pinned too.
    CollectOptions options;
    options.iterations = 80;
    options.maxGpus = 3;
    options.seed = 42;
    for (int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        options.threads = threads;
        const ProfileDataset dataset =
            collectProfiles({"vgg_11", "resnet_50"}, options);
        std::stringstream cbf;
        dataset.saveCbf(cbf);
        const std::string bytes = cbf.str();
        EXPECT_EQ(dataset.ops().size(), 1012u);
        EXPECT_EQ(bytes.size(), 692264u);
        EXPECT_EQ(io::xxhash64(bytes.data(), bytes.size()),
                  0x0c995c9825867405ull);
    }
}

TEST(SeedingTest, CollectionIsByteIdenticalWithObservabilityOn)
{
    // The profiler's timers/counters/spans must not perturb results:
    // obs-on output matches obs-off output byte for byte at every
    // thread count.
    CollectOptions options;
    options.iterations = 12;
    options.maxGpus = 2;
    const std::vector<std::string> models = {"alexnet", "vgg_11"};
    for (int threads : {1, 2, 4, 8}) {
        SCOPED_TRACE(threads);
        options.threads = threads;
        std::stringstream off_cbf, on_cbf;
        {
            obs::ScopedEnable off(false);
            collectProfiles(models, options).saveCbf(off_cbf);
        }
        {
            obs::ScopedEnable on(true);
            collectProfiles(models, options).saveCbf(on_cbf);
        }
        EXPECT_EQ(on_cbf.str(), off_cbf.str());
    }
}

TEST(DatasetTest, LoadedDatasetServesIndexedQueries)
{
    // The collected index is built once after the sweep, the loaded
    // one row by row: both must serve the same rows in the same order.
    // CBF reloads bit-exactly, so every query is compared row by row.
    const ProfileDataset &dataset = smallDataset();
    std::ostringstream cbf;
    dataset.saveCbf(cbf);
    io::CbfFile file;
    std::string error;
    ASSERT_TRUE(io::CbfFile::tryParse(cbf.str(), &file, &error)) << error;
    ProfileDataset loaded;
    ASSERT_TRUE(ProfileDataset::tryLoadCbf(file, &loaded, &error)) << error;

    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    const auto expect_same_rows =
        [&](const std::vector<const OpProfile *> &got,
            const std::vector<const OpProfile *> &want) {
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < want.size(); ++i) {
                SCOPED_TRACE(testing::Message() << "row " << i);
                EXPECT_EQ(got[i]->model, want[i]->model);
                EXPECT_EQ(got[i]->gpu, want[i]->gpu);
                EXPECT_EQ(got[i]->op, want[i]->op);
                EXPECT_EQ(got[i]->features, want[i]->features);
                EXPECT_EQ(got[i]->timeUs.count(), want[i]->timeUs.count());
                EXPECT_EQ(bits(got[i]->timeUs.mean()),
                          bits(want[i]->timeUs.mean()));
            }
        };
    for (hw::GpuModel gpu : hw::allGpuModels()) {
        SCOPED_TRACE(hw::gpuModelName(gpu));
        expect_same_rows(loaded.opsFor(gpu), dataset.opsFor(gpu));
        const auto types = dataset.opTypes(gpu);
        EXPECT_EQ(loaded.opTypes(gpu), types);
        for (OpType op : types) {
            SCOPED_TRACE(graph::opTypeName(op));
            expect_same_rows(loaded.opsFor(gpu, op), dataset.opsFor(gpu, op));
            EXPECT_EQ(bits(loaded.meanTimeUs(gpu, op)),
                      bits(dataset.meanTimeUs(gpu, op)));
        }
    }

    // The CSV dialect rebuilds the same index from rounded timings.
    std::stringstream csv;
    dataset.saveCsv(csv);
    const ProfileDataset from_csv = ProfileDataset::loadCsv(csv);
    for (hw::GpuModel gpu : hw::allGpuModels()) {
        EXPECT_EQ(from_csv.opsFor(gpu).size(), dataset.opsFor(gpu).size());
        EXPECT_EQ(from_csv.opTypes(gpu), dataset.opTypes(gpu));
        for (OpType op : dataset.opTypes(gpu)) {
            EXPECT_EQ(from_csv.opsFor(gpu, op).size(),
                      dataset.opsFor(gpu, op).size());
            EXPECT_NEAR(from_csv.meanTimeUs(gpu, op),
                        dataset.meanTimeUs(gpu, op),
                        1e-6 * dataset.meanTimeUs(gpu, op) + 1e-9);
        }
    }
}

TEST(DatasetTest, LightOpsContributeLittle)
{
    // Paper Sec. III-A: light ops contribute < 7% of training time.
    // Classification is per op *type* by mean time on P2, as in the
    // paper; contributions are then measured on every GPU.
    const ProfileDataset &dataset = smallDataset();
    std::set<OpType> heavy;
    for (OpType op : dataset.opTypes(hw::GpuModel::K80)) {
        if (graph::opTypeInfo(op).device == graph::Device::Gpu &&
            dataset.meanTimeUs(hw::GpuModel::K80, op) >= 500.0) {
            heavy.insert(op);
        }
    }
    for (hw::GpuModel gpu : hw::allGpuModels()) {
        double light = 0.0, total = 0.0;
        for (const auto *profile : dataset.opsFor(gpu)) {
            const double contribution =
                profile->timeUs.mean() *
                static_cast<double>(profile->occurrences);
            total += contribution;
            if (!profile->onCpu && !heavy.count(profile->op))
                light += contribution;
        }
        EXPECT_LT(light / total, 0.07) << hw::gpuModelName(gpu);
    }
}

} // namespace
} // namespace profile
} // namespace ceer

/**
 * @file
 * Tests for the GPU training-memory estimator and its integration into
 * the recommender's feasibility checks.
 */

#include <gtest/gtest.h>

#include "cloud/instances.h"
#include "core/recommender.h"
#include "core/trainer.h"
#include "hw/memory.h"
#include "models/model_zoo.h"
#include "profile/profiler.h"

namespace ceer {
namespace hw {
namespace {

using graph::Graph;

TEST(MemoryTest, ComponentsArePositiveAndSumUp)
{
    const Graph g = models::buildVgg(19, 32);
    const MemoryEstimate estimate = estimateTrainingMemory(g);
    EXPECT_GT(estimate.paramBytes, 500e6); // ~144M params * 4B.
    EXPECT_DOUBLE_EQ(estimate.gradientBytes, estimate.paramBytes);
    // Vanilla SGD keeps no slot variables.
    EXPECT_DOUBLE_EQ(estimate.optimizerBytes, 0.0);
    EXPECT_GT(estimate.activationBytes, 1e9);
    EXPECT_NEAR(estimate.totalBytes(),
                2.0 * estimate.paramBytes + estimate.activationBytes +
                    estimate.workspaceBytes,
                1.0);
    EXPECT_NEAR(estimate.totalGB(), estimate.totalBytes() / 1e9, 1e-9);
}

TEST(MemoryTest, ActivationsScaleWithBatchParamsDoNot)
{
    const MemoryEstimate at32 =
        estimateTrainingMemory(models::buildResNetV2(50, 32));
    const MemoryEstimate at64 =
        estimateTrainingMemory(models::buildResNetV2(50, 64));
    EXPECT_DOUBLE_EQ(at64.paramBytes, at32.paramBytes);
    EXPECT_NEAR(at64.activationBytes / at32.activationBytes, 2.0, 0.05);
}

TEST(MemoryTest, RetainsOnlyBackwardReferencedActivations)
{
    // Upper bound: retained activations must be strictly less than the
    // sum of all forward outputs (BN outputs etc. are not retained).
    const Graph g = models::buildResNetV2(101, 32);
    double all_forward = 0.0;
    for (const auto &node : g.nodes()) {
        if (node.device() == graph::Device::Gpu && !node.isGradient)
            all_forward += static_cast<double>(node.outputBytes());
    }
    const MemoryEstimate estimate = estimateTrainingMemory(g);
    EXPECT_LT(estimate.activationBytes, 0.8 * all_forward);
    EXPECT_GT(estimate.activationBytes, 0.3 * all_forward);
}

TEST(MemoryTest, EveryZooModelFitsEverywhereAtDefaultBatch)
{
    // The paper trains all 12 CNNs at batch 32 on all four GPUs, so at
    // that batch everything must fit on the smallest (8 GB M60) —
    // except the deepest models, which genuinely exceed 8 GB.
    for (const std::string &name : models::allModelNames()) {
        const MemoryEstimate estimate =
            estimateTrainingMemory(models::buildModel(name, 32));
        EXPECT_TRUE(fitsInGpuMemory(estimate, GpuModel::V100)) << name;
        EXPECT_TRUE(fitsInGpuMemory(estimate, GpuModel::K80)) << name;
    }
    EXPECT_TRUE(fitsInGpuMemory(
        estimateTrainingMemory(models::buildAlexNet(32)), GpuModel::M60));
    EXPECT_TRUE(fitsInGpuMemory(
        estimateTrainingMemory(models::buildVgg(19, 32)), GpuModel::M60));
}

TEST(MemoryTest, LargeBatchOverflowsSmallGpus)
{
    const MemoryEstimate estimate =
        estimateTrainingMemory(models::buildVgg(19, 128));
    EXPECT_FALSE(fitsInGpuMemory(estimate, GpuModel::M60)); // 8 GB.
    EXPECT_TRUE(fitsInGpuMemory(estimate, GpuModel::K80));  // 12 GB.
    EXPECT_TRUE(fitsInGpuMemory(estimate, GpuModel::V100)); // 16 GB.
}

TEST(MemoryTest, MarginTightensTheCheck)
{
    const MemoryEstimate estimate =
        estimateTrainingMemory(models::buildResNetV2(200, 32)); // ~9.2 GB.
    EXPECT_TRUE(fitsInGpuMemory(estimate, GpuModel::K80, 0.05));
    EXPECT_FALSE(fitsInGpuMemory(estimate, GpuModel::K80, 0.30));
}

TEST(MemoryTest, FitTableMatchesEachGpuBudget)
{
    // computeMemoryFits estimates once per graph; every verdict must
    // equal the check against that GPU's own budget: device memory
    // less the default 5% margin.
    bool mixed = false;
    for (const std::string &name : models::allModelNames()) {
        for (std::int64_t batch : {1, 32, 128, 256}) {
            SCOPED_TRACE(name + " at batch " + std::to_string(batch));
            const Graph g = models::buildModel(name, batch);
            const core::MemoryFitTable fits = core::computeMemoryFits(g);
            const double bytes = estimateTrainingMemory(g).totalBytes();
            std::size_t fitting = 0;
            for (GpuModel gpu : allGpuModels()) {
                const bool expected =
                    bytes <= gpuSpec(gpu).memoryGB * 1e9 * 0.95;
                EXPECT_EQ(fits[static_cast<std::size_t>(gpu)], expected)
                    << gpuModelName(gpu);
                fitting += expected;
            }
            mixed |= fitting > 0 && fitting < allGpuModels().size();
        }
    }
    // At least one (CNN, batch) fits some GPUs and not others, so the
    // table is not one verdict copied four times.
    EXPECT_TRUE(mixed);
}

TEST(MemoryRecommenderTest, OversizedBatchExcludesSmallGpuFamilies)
{
    // Train a tiny Ceer model and recommend for a batch that only
    // larger-memory GPUs can hold.
    profile::CollectOptions options;
    options.iterations = 20;
    options.maxGpus = 2;
    const core::CeerModel model = core::trainCeer(
        profile::collectProfiles({"vgg_11", "inception_v1"}, options));
    const core::CeerPredictor predictor(model);

    const Graph g = models::buildVgg(19, 128);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    core::WorkloadSpec workload{&g, 128000, 128};
    const core::Recommendation result =
        core::recommend(predictor, workload, catalog.instances(),
                        core::Objective::MinCost);
    for (const auto &evaluation : result.evaluations) {
        if (evaluation.instance.gpu == GpuModel::M60) {
            EXPECT_FALSE(evaluation.fitsMemory)
                << evaluation.instance.name;
            EXPECT_FALSE(evaluation.feasible());
        } else {
            EXPECT_TRUE(evaluation.fitsMemory)
                << evaluation.instance.name;
        }
    }
    ASSERT_GE(result.bestIndex, 0);
    EXPECT_NE(result.best().instance.gpu, GpuModel::M60);

    // Disabling the check restores the old behaviour.
    core::Constraints no_check;
    no_check.enforceGpuMemory = false;
    const core::Recommendation unchecked =
        core::recommend(predictor, workload, catalog.instances(),
                        core::Objective::MinCost, no_check);
    for (const auto &evaluation : unchecked.evaluations)
        EXPECT_TRUE(evaluation.fitsMemory);
}

} // namespace
} // namespace hw
} // namespace ceer

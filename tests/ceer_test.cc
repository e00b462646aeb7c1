/**
 * @file
 * End-to-end tests of the Ceer pipeline: classification, op-model
 * fitting, medians, the communication model, prediction accuracy on
 * held-out CNNs, ablations, recommendation and serialization.
 */

#include <ostream>
#include <sstream>

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "cloud/instances.h"
#include "core/predictor.h"
#include "core/recommender.h"
#include "core/trainer.h"
#include "models/model_zoo.h"
#include "profile/profiler.h"
#include "sim/simulator.h"

namespace ceer {
namespace core {
namespace {

using graph::Graph;
using graph::OpType;
using hw::GpuModel;

/** Trained-on-the-paper's-8-CNNs fixture, shared across tests. */
const CeerModel &
trainedModel()
{
    static const CeerModel model = [] {
        profile::CollectOptions options;
        options.iterations = 50;
        const profile::ProfileDataset dataset =
            profile::collectProfiles(models::trainingSetNames(),
                                     options);
        return trainCeer(dataset);
    }();
    return model;
}

TEST(TrainerTest, ClassifiesPaperHeavyOps)
{
    const CeerModel &model = trainedModel();
    // The pillars of the paper's Fig. 2 heavy-op list.
    for (OpType op : {OpType::Conv2D, OpType::Conv2DBackpropFilter,
                      OpType::Conv2DBackpropInput, OpType::MaxPool,
                      OpType::MaxPoolGrad, OpType::AvgPool,
                      OpType::AvgPoolGrad, OpType::Relu,
                      OpType::ReluGrad, OpType::FusedBatchNormV3,
                      OpType::FusedBatchNormGradV3, OpType::AddV2,
                      OpType::AddN, OpType::BiasAdd, OpType::MatMul}) {
        EXPECT_EQ(model.classify(op), OpClass::Heavy)
            << graph::opTypeName(op);
    }
    // Structural/metadata ops stay light; host kernels are CPU.
    EXPECT_EQ(model.classify(OpType::Reshape), OpClass::Light);
    EXPECT_EQ(model.classify(OpType::Shape), OpClass::Light);
    EXPECT_EQ(model.classify(OpType::SparseToDense), OpClass::Cpu);
    EXPECT_EQ(model.classify(OpType::IteratorGetNext), OpClass::Cpu);
}

TEST(TrainerTest, OpModelsFitWellOnAllGpus)
{
    const CeerModel &model = trainedModel();
    for (GpuModel gpu : hw::allGpuModels()) {
        const OpTimeModel *conv = model.opModel(gpu, OpType::Conv2D);
        ASSERT_NE(conv, nullptr) << hw::gpuModelName(gpu);
        EXPECT_TRUE(conv->usable);
        EXPECT_GT(conv->r2, 0.84);
        EXPECT_GT(conv->points, 10u);
    }
    const auto [lo, hi] = model.opModelR2Range();
    // Paper: R^2 in 0.84-0.98 across operations; our synthetic
    // substrate is cleaner, so allow up to 1.0.
    EXPECT_GE(lo, 0.80);
    EXPECT_LE(hi, 1.0);
}

TEST(TrainerTest, FilterGradPrefersQuadratic)
{
    // Sec. IV-B: Conv2DBackpropFilter needs the quadratic fit.
    const CeerModel &model = trainedModel();
    int quadratic_count = 0;
    for (GpuModel gpu : hw::allGpuModels()) {
        const OpTimeModel *entry =
            model.opModel(gpu, OpType::Conv2DBackpropFilter);
        ASSERT_NE(entry, nullptr);
        quadratic_count += entry->quadratic;
    }
    EXPECT_GE(quadratic_count, 2);
}

TEST(TrainerTest, MediansAreSensible)
{
    const CeerModel &model = trainedModel();
    // Light GPU kernels: a few microseconds to tens of microseconds.
    EXPECT_GT(model.lightMedianUs, 1.0);
    EXPECT_LT(model.lightMedianUs, 100.0);
    // CPU kernels are one to two orders of magnitude slower.
    EXPECT_GT(model.cpuMedianUs, model.lightMedianUs * 3.0);
    EXPECT_LT(model.cpuMedianUs, 5000.0);
}

TEST(TrainerTest, CommModelLinearFitsPerGpuAndK)
{
    const CeerModel &model = trainedModel();
    for (GpuModel gpu : hw::allGpuModels()) {
        const auto it = model.comm.fits.find(gpu);
        ASSERT_NE(it, model.comm.fits.end());
        ASSERT_GE(it->second.size(), 4u);
        for (int k = 1; k <= 4; ++k) {
            const auto &fit =
                it->second[static_cast<std::size_t>(k) - 1];
            EXPECT_TRUE(fit.valid) << hw::gpuModelName(gpu) << " k="
                                   << k;
            // Paper Sec. IV-C: comm R^2 between 0.88 and 0.98; allow
            // the cleaner-substrate upside.
            EXPECT_GT(fit.r2, 0.85)
                << hw::gpuModelName(gpu) << " k=" << k;
        }
        // More GPUs -> more overhead for a mid-size CNN.
        const double params = 44.5e6;
        EXPECT_GT(model.comm.overheadUs(gpu, 2, params),
                  model.comm.overheadUs(gpu, 1, params));
        EXPECT_GT(model.comm.overheadUs(gpu, 4, params),
                  model.comm.overheadUs(gpu, 2, params));
    }
}

TEST(TrainerTest, CommModelExtrapolatesBeyondTrainedWidths)
{
    const CeerModel &model = trainedModel();
    const double params = 44.5e6;
    const double k4 =
        model.comm.overheadUs(GpuModel::V100, 4, params);
    const double k8 =
        model.comm.overheadUs(GpuModel::V100, 8, params);
    EXPECT_GT(k8, k4);
}


TEST(TrainerTest, ThresholdControlsClassification)
{
    // Raising the heavy threshold far above any op's mean leaves
    // nothing classified heavy; lowering it to ~0 makes every GPU op
    // heavy.
    profile::CollectOptions options;
    options.iterations = 15;
    options.multiGpuRuns = true;
    options.maxGpus = 2;
    const profile::ProfileDataset dataset =
        profile::collectProfiles({"inception_v1"}, options);

    TrainOptions all_light;
    all_light.heavyThresholdUs = 1e12;
    const CeerModel light_model = trainCeer(dataset, all_light);
    EXPECT_TRUE(light_model.heavyOps.empty());
    EXPECT_TRUE(light_model.opModels.empty());

    TrainOptions all_heavy;
    all_heavy.heavyThresholdUs = 0.0;
    const CeerModel heavy_model = trainCeer(dataset, all_heavy);
    EXPECT_GT(heavy_model.heavyOps.size(), 25u);
    // CPU ops are never classified heavy regardless of threshold.
    EXPECT_EQ(heavy_model.classify(OpType::SparseToDense),
              OpClass::Cpu);
}

TEST(TrainerTest, FewInstancesFallBackToMedian)
{
    // With a huge minPoints every fit is unusable and predictUs falls
    // back to the per-type median of instance means.
    profile::CollectOptions options;
    options.iterations = 15;
    options.maxGpus = 2;
    const profile::ProfileDataset dataset =
        profile::collectProfiles({"vgg_11"}, options);
    TrainOptions no_regression;
    no_regression.minPoints = 100000;
    const CeerModel model = trainCeer(dataset, no_regression);
    const OpTimeModel *conv =
        model.opModel(GpuModel::V100, OpType::Conv2D);
    ASSERT_NE(conv, nullptr);
    EXPECT_FALSE(conv->usable);
    EXPECT_GT(conv->medianUs, 0.0);
    EXPECT_DOUBLE_EQ(conv->predictUs({1e6, 1e6, 0.0, 1e9}),
                     conv->medianUs);
}

TEST(TrainerTest, PredictUsClampsToPositiveFloor)
{
    const CeerModel &model = trainedModel();
    const OpTimeModel *relu =
        model.opModel(GpuModel::V100, OpType::Relu);
    ASSERT_NE(relu, nullptr);
    // Far below the training range the line can dip negative; the
    // prediction floors at 1us (kernels cannot beat launch).
    EXPECT_GE(relu->predictUs({0.0, 0.0, 0.0, 0.0}), 1.0);
}

TEST(TrainerTest, ThresholdGpuCanBeChanged)
{
    // Classifying on V100 (10x faster) must demote some ops that are
    // heavy when classified on the paper's P2.
    profile::CollectOptions options;
    options.iterations = 15;
    options.maxGpus = 2;
    const profile::ProfileDataset dataset = profile::collectProfiles(
        {"inception_v1", "vgg_11"}, options);
    const CeerModel on_p2 = trainCeer(dataset);
    TrainOptions v100_options;
    v100_options.thresholdGpu = GpuModel::V100;
    const CeerModel on_v100 = trainCeer(dataset, v100_options);
    EXPECT_LT(on_v100.heavyOps.size(), on_p2.heavyOps.size());
}

// --- Prediction accuracy on held-out CNNs (paper Sec. V) ---

struct AccuracyCase
{
    const char *model;
    int numGpus;
};

// Print the fields, not the raw bytes: gtest's default dump includes
// the model-name pointer, which ASLR changes from run to run, and the
// dump becomes part of the test name ctest registers.
void
PrintTo(const AccuracyCase &test_case, std::ostream *os)
{
    *os << test_case.model << " k=" << test_case.numGpus;
}

class AccuracyTest : public ::testing::TestWithParam<AccuracyCase>
{
};

TEST_P(AccuracyTest, HeldOutErrorWithinPaperBand)
{
    const auto &test_case = GetParam();
    const CeerPredictor predictor(trainedModel());
    const Graph g = models::buildModel(test_case.model, 32);
    const PredictPlan plan = predictor.compile(g);
    for (GpuModel gpu : hw::allGpuModels()) {
        sim::SimConfig config;
        config.gpu = gpu;
        config.numGpus = test_case.numGpus;
        config.seed = 4242;
        sim::TrainingSimulator simulator(g, config);
        const double observed = simulator.run(40).iterationUs.mean();
        const double predicted = predictor.predictIterationUs(
            plan, gpu, test_case.numGpus);
        // Paper: ~5% average error; we allow 12% per point.
        EXPECT_NEAR(predicted / observed, 1.0, 0.12)
            << test_case.model << " on " << hw::gpuModelName(gpu);
    }
}

INSTANTIATE_TEST_SUITE_P(
    TestSet, AccuracyTest,
    ::testing::Values(AccuracyCase{"inception_v3", 4},
                      AccuracyCase{"alexnet", 4},
                      AccuracyCase{"resnet_101", 4},
                      AccuracyCase{"vgg_19", 4},
                      AccuracyCase{"inception_v3", 1},
                      AccuracyCase{"resnet_101", 2}),
    [](const auto &info) {
        return std::string(info.param.model) + "_k" +
               std::to_string(info.param.numGpus);
    });

TEST(PredictorTest, RankingAcrossGpusPreserved)
{
    const CeerPredictor predictor(trainedModel());
    const PredictPlan plan =
        predictor.compile(models::buildModel("inception_v3", 32));
    const double p3 =
        predictor.predictIterationUs(plan, GpuModel::V100, 4);
    const double g4 = predictor.predictIterationUs(plan, GpuModel::T4, 4);
    const double g3 =
        predictor.predictIterationUs(plan, GpuModel::M60, 4);
    const double p2 =
        predictor.predictIterationUs(plan, GpuModel::K80, 4);
    EXPECT_LT(p3, g4);
    EXPECT_LT(g4, g3);
    EXPECT_LT(g3, p2);
}

TEST(PredictorTest, AblationsDegradeAccuracy)
{
    const CeerPredictor predictor(trainedModel());
    const Graph g = models::buildModel("alexnet", 32);
    sim::SimConfig config;
    config.gpu = GpuModel::V100;
    config.seed = 11;
    sim::TrainingSimulator simulator(g, config);
    const double observed = simulator.run(40).iterationUs.mean();

    const PredictPlan plan = predictor.compile(g);
    const double full =
        predictor.predictIterationUs(plan, GpuModel::V100, 1);
    const double no_comm = predictor.predictIterationUs(
        plan, GpuModel::V100, 1, baselines::noCommOptions());
    const double heavy_only = predictor.predictIterationUs(
        plan, GpuModel::V100, 1, baselines::heavyOnlyOptions());

    const double full_error = std::abs(full / observed - 1.0);
    const double no_comm_error = std::abs(no_comm / observed - 1.0);
    // AlexNet's k=1 comm overhead is large (Sec. IV-A: ~30%); ignoring
    // it must hurt substantially.
    EXPECT_GT(no_comm_error, full_error + 0.05);
    EXPECT_LT(no_comm, full);
    EXPECT_LT(heavy_only, full);
}

TEST(PredictorTest, TrainingPredictionArithmetic)
{
    const CeerPredictor predictor(trainedModel());
    const PredictPlan plan =
        predictor.compile(models::buildModel("inception_v3", 32));
    const TrainingPrediction prediction = predictor.predictTraining(
        plan, GpuModel::V100, 4, 1'200'000, 32);
    EXPECT_EQ(prediction.iterations, 1'200'000 / (4 * 32));
    EXPECT_NEAR(prediction.hours,
                prediction.iterationUs * prediction.iterations / 3.6e9,
                1e-9);
    EXPECT_NEAR(prediction.costUsd(3.06), prediction.hours * 3.06,
                1e-9);
}

TEST(PredictorTest, UnseenHeavyOpFallsBackToMedian)
{
    // LRN *is* in the training set (via inception_v1), so simulate a
    // heavy op never profiled on V100 by erasing its V100 model: every
    // LRN instance in a plan of alexnet must then cost the light
    // median on V100.
    CeerModel model = trainedModel();
    ASSERT_NE(model.opModel(GpuModel::V100, OpType::Lrn), nullptr);
    model.opModels.erase({GpuModel::V100, OpType::Lrn});
    model.heavyOps.insert(OpType::Lrn);
    const CeerPredictor predictor(std::move(model));

    const Graph g = models::buildModel("alexnet", 32);
    std::size_t lrn_nodes = 0;
    for (const graph::Node &node : g.nodes())
        lrn_nodes += node.type == OpType::Lrn;
    ASSERT_GT(lrn_nodes, 0u);

    const PredictPlan plan = predictor.compile(g);
    std::size_t lrn_group = plan.groupCount();
    for (std::size_t i = 0; i < plan.groupCount(); ++i) {
        if (plan.groupOp(i) == OpType::Lrn)
            lrn_group = i;
    }
    ASSERT_LT(lrn_group, plan.groupCount());
    EXPECT_EQ(plan.groupHeavyUs(lrn_group, GpuModel::V100),
              static_cast<double>(lrn_nodes) *
                  predictor.model().lightMedianUs);
}

TEST(PredictorTest, BreakdownSumsToThePrediction)
{
    const CeerPredictor predictor(trainedModel());
    const PredictPlan plan =
        predictor.compile(models::buildModel("resnet_101", 32));
    for (GpuModel gpu : hw::allGpuModels()) {
        for (int k : {1, 4}) {
            const PredictionBreakdown breakdown =
                predictor.breakdown(plan, gpu, k);
            // Same terms in the same order as the prediction: exact.
            EXPECT_EQ(breakdown.totalUs(),
                      predictor.predictIterationUs(plan, gpu, k));
            EXPECT_EQ(breakdown.heavyUs, plan.heavyUs(gpu));
            EXPECT_GT(breakdown.heavyUs, breakdown.lightUs);
            EXPECT_GT(breakdown.commUs, 0.0);
            // Per-type attribution covers the heavy sum and is sorted.
            double by_type_sum = 0.0;
            double previous = 1e300;
            for (const auto &[type, value] : breakdown.heavyByType) {
                by_type_sum += value;
                EXPECT_LE(value, previous);
                previous = value;
            }
            EXPECT_NEAR(by_type_sum, breakdown.heavyUs,
                        1e-6 * breakdown.heavyUs);
        }
    }
}

TEST(PredictorTest, BreakdownTopOpIsConvForResNet)
{
    const CeerPredictor predictor(trainedModel());
    const PredictionBreakdown breakdown = predictor.breakdown(
        predictor.compile(models::buildModel("resnet_101", 32)),
        GpuModel::V100, 1);
    ASSERT_FALSE(breakdown.heavyByType.empty());
    const OpType top = breakdown.heavyByType.front().first;
    EXPECT_TRUE(top == OpType::Conv2D ||
                top == OpType::Conv2DBackpropFilter ||
                top == OpType::Conv2DBackpropInput)
        << graph::opTypeName(top);
}

TEST(RecommenderTest, CustomObjectiveBlendsTimeAndCost)
{
    const CeerPredictor predictor(trainedModel());
    const Graph g = models::buildModel("inception_v3", 32);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    WorkloadSpec workload{&g, 1'200'000, 32};

    // Obj(T, C) = T * C: the cost-delay product must pick something at
    // least as good as both single-metric winners under its own score.
    const ObjectiveFn product = [](double hours, double cost) {
        return hours * cost;
    };
    const Recommendation blended = recommend(
        predictor, workload, catalog.instances(), product);
    ASSERT_GE(blended.bestIndex, 0);
    const auto score = [&](const CandidateEvaluation &evaluation) {
        return evaluation.prediction.hours * evaluation.costUsd;
    };
    for (const auto &evaluation : blended.evaluations)
        EXPECT_LE(score(blended.best()), score(evaluation) + 1e-9);

    // Degenerate blends reduce to the built-in objectives.
    const Recommendation time_like = recommend(
        predictor, workload, catalog.instances(),
        objectiveFunction(Objective::MinTrainingTime));
    const Recommendation builtin_time =
        recommend(predictor, workload, catalog.instances(),
                  Objective::MinTrainingTime);
    EXPECT_EQ(time_like.best().instance.name,
              builtin_time.best().instance.name);
}

TEST(RecommenderTest, EmptyObjectiveFunctionPanics)
{
    const CeerPredictor predictor(trainedModel());
    const Graph g = models::buildModel("alexnet", 32);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    WorkloadSpec workload{&g, 1000, 32};
    EXPECT_DEATH(recommend(predictor, workload, catalog.instances(),
                           ObjectiveFn()),
                 "empty objective");
}

TEST(RecommenderTest, SweepWithFitsNeedsNoGraphButChecksTheBatch)
{
    // ceerd sweeps a cached plan with its memory-fit table and no
    // graph: the result matches the graph-based sweep, and a workload
    // batch other than the plan's still panics.
    const CeerPredictor predictor(trainedModel());
    const Graph g = models::buildModel("alexnet", 32);
    const PredictPlan plan = predictor.compile(g);
    const MemoryFitTable fits = computeMemoryFits(g);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    const ObjectiveFn objective = objectiveFunction(Objective::MinCost);

    const Recommendation expected =
        recommend(predictor, WorkloadSpec{&g, 1000, 32},
                  catalog.instances(), objective);
    Recommendation swept;
    recommendInto(predictor, plan, WorkloadSpec{nullptr, 1000, 32},
                  catalog.instances(), objective, Constraints{}, 1,
                  &swept, &fits);
    EXPECT_EQ(swept.bestIndex, expected.bestIndex);
    ASSERT_EQ(swept.evaluations.size(), expected.evaluations.size());
    for (std::size_t i = 0; i < swept.evaluations.size(); ++i) {
        EXPECT_EQ(swept.evaluations[i].costUsd,
                  expected.evaluations[i].costUsd);
        EXPECT_EQ(swept.evaluations[i].fitsMemory,
                  expected.evaluations[i].fitsMemory);
    }

    const WorkloadSpec wrong_batch{nullptr, 1000, 64};
    EXPECT_DEATH(recommendInto(predictor, plan, wrong_batch,
                               catalog.instances(), objective,
                               Constraints{}, 1, &swept, &fits),
                 "built at batch 32 but the workload declares batch 64");
    EXPECT_DEATH(recommendInto(predictor, plan, wrong_batch,
                               catalog.instances(), objective,
                               Constraints{}, 1, &swept),
                 "workload has no graph");
}

TEST(RecommenderTest, MinCostPicksG4AndMinTimePicksP3)
{
    // Paper Sec. V: for Inception-v3 under AWS prices the cheapest
    // feasible choice is the 1-GPU G4 instance (Fig. 11), while the
    // fastest is the 4-GPU P3 instance (Fig. 8).
    const CeerPredictor predictor(trainedModel());
    const Graph g = models::buildModel("inception_v3", 32);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    WorkloadSpec workload{&g, 1'200'000, 32};

    const Recommendation cheapest =
        recommend(CeerPredictor(trainedModel()), workload,
                  catalog.instances(), Objective::MinCost);
    ASSERT_GE(cheapest.bestIndex, 0);
    EXPECT_EQ(cheapest.best().instance.gpu, GpuModel::T4);
    EXPECT_EQ(cheapest.best().instance.numGpus, 1);

    const Recommendation fastest =
        recommend(predictor, workload, catalog.instances(),
                  Objective::MinTrainingTime);
    EXPECT_EQ(fastest.best().instance.gpu, GpuModel::V100);
    EXPECT_EQ(fastest.best().instance.numGpus, 4);
}

TEST(RecommenderTest, MarketPricesFlipWinnerToP2)
{
    // Paper Fig. 12: with market prices the 1-GPU P2 wins on cost.
    const CeerPredictor predictor(trainedModel());
    const Graph g = models::buildModel("inception_v3", 32);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::marketPriced();
    WorkloadSpec workload{&g, 1'200'000, 32};
    const Recommendation result = recommend(
        predictor, workload, catalog.instances(), Objective::MinCost);
    ASSERT_GE(result.bestIndex, 0);
    EXPECT_EQ(result.best().instance.gpu, GpuModel::K80);
    EXPECT_EQ(result.best().instance.numGpus, 1);
}

TEST(RecommenderTest, TotalBudgetMarksInfeasible)
{
    const CeerPredictor predictor(trainedModel());
    const Graph g = models::buildModel("resnet_101", 32);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    WorkloadSpec workload{&g, 1'200'000, 32};
    Constraints constraints;
    constraints.totalBudgetUsd = 10.0;
    const Recommendation result =
        recommend(predictor, workload, catalog.instances(),
                  Objective::MinTrainingTime, constraints);
    bool some_infeasible = false, some_feasible = false;
    for (const auto &evaluation : result.evaluations) {
        some_infeasible |= !evaluation.feasible();
        some_feasible |= evaluation.feasible();
    }
    EXPECT_TRUE(some_infeasible);
    // Under $10, P2 should be entirely infeasible (paper Fig. 10).
    for (const auto &evaluation : result.evaluations) {
        if (evaluation.instance.gpu == GpuModel::K80) {
            EXPECT_FALSE(evaluation.feasible())
                << evaluation.instance.name;
        }
    }
    if (some_feasible) {
        EXPECT_GE(result.bestIndex, 0);
    }
}

TEST(RecommenderTest, NoFeasibleCandidateYieldsNoBest)
{
    const CeerPredictor predictor(trainedModel());
    const Graph g = models::buildModel("vgg_19", 32);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    WorkloadSpec workload{&g, 1'200'000, 32};
    Constraints constraints;
    constraints.totalBudgetUsd = 0.01;
    const Recommendation result =
        recommend(predictor, workload, catalog.instances(),
                  Objective::MinCost, constraints);
    EXPECT_EQ(result.bestIndex, -1);
    EXPECT_DEATH(result.best(), "no feasible");
}

TEST(SerializationTest, SaveLoadRoundTripPredictsIdentically)
{
    const CeerModel &model = trainedModel();
    std::stringstream buffer;
    model.save(buffer);
    const CeerModel restored = CeerModel::load(buffer);

    EXPECT_EQ(restored.heavyOps, model.heavyOps);
    EXPECT_DOUBLE_EQ(restored.lightMedianUs, model.lightMedianUs);
    EXPECT_DOUBLE_EQ(restored.cpuMedianUs, model.cpuMedianUs);

    const CeerPredictor original(model);
    const CeerPredictor loaded(restored);
    const Graph g = models::buildModel("resnet_101", 32);
    const PredictPlan original_plan = original.compile(g);
    const PredictPlan loaded_plan = loaded.compile(g);
    for (GpuModel gpu : hw::allGpuModels()) {
        for (int k = 1; k <= 4; ++k) {
            EXPECT_NEAR(loaded.predictIterationUs(loaded_plan, gpu, k),
                        original.predictIterationUs(original_plan, gpu,
                                                    k),
                        1e-3)
                << hw::gpuModelName(gpu) << " k=" << k;
        }
    }
}

TEST(SerializationTest, ReloadedModelPredictsBitIdenticallyAcrossZoo)
{
    // save() writes every coefficient at %.17g, which round-trips a
    // double exactly, so a reloaded model is not merely close: every
    // prediction it makes must be bit-identical to the original's, for
    // every CNN in the zoo, every GPU, and every cluster size.
    const CeerModel &model = trainedModel();
    std::stringstream buffer;
    model.save(buffer);
    const CeerModel restored = CeerModel::load(buffer);

    // A second save of the reloaded model must reproduce the file
    // byte for byte (serialization is a fixed point).
    std::stringstream again;
    restored.save(again);
    EXPECT_EQ(again.str(), buffer.str());

    const CeerPredictor original(model);
    const CeerPredictor loaded(restored);
    for (const auto &name : models::allModelNames()) {
        const Graph g = models::buildModel(name, 32);
        const PredictPlan original_plan = original.compile(g);
        const PredictPlan loaded_plan = loaded.compile(g);
        for (GpuModel gpu : hw::allGpuModels()) {
            for (int k = 1; k <= 4; ++k) {
                EXPECT_EQ(loaded.predictIterationUs(loaded_plan, gpu, k),
                          original.predictIterationUs(original_plan, gpu,
                                                      k))
                    << name << " " << hw::gpuModelName(gpu)
                    << " k=" << k;
            }
        }
    }
}

TEST(SerializationTest, DatasetCsvRoundTripTrainsTheSameModel)
{
    // Training from a reloaded profile CSV (`ceer profile --out
    // x.csv`, then `ceer train`) must reproduce the freshly-trained
    // model: the two-point moment reconstruction in loadCsv is the
    // only lossy step, and it must stay negligible.
    profile::CollectOptions options;
    options.iterations = 30;
    options.maxGpus = 2;
    const profile::ProfileDataset dataset = profile::collectProfiles(
        {"alexnet", "vgg_11", "inception_v1"}, options);
    const CeerModel fresh = trainCeer(dataset);

    std::stringstream buffer;
    dataset.saveCsv(buffer);
    const profile::ProfileDataset reloaded =
        profile::ProfileDataset::loadCsv(buffer);
    const CeerModel restored = trainCeer(reloaded);

    EXPECT_EQ(restored.heavyOps, fresh.heavyOps);
    EXPECT_NEAR(restored.lightMedianUs, fresh.lightMedianUs,
                1e-4 * fresh.lightMedianUs + 1e-9);
    EXPECT_NEAR(restored.cpuMedianUs, fresh.cpuMedianUs,
                1e-4 * fresh.cpuMedianUs + 1e-9);

    ASSERT_EQ(restored.opModels.size(), fresh.opModels.size());
    for (const auto &[key, fresh_op] : fresh.opModels) {
        const auto it = restored.opModels.find(key);
        ASSERT_NE(it, restored.opModels.end())
            << hw::gpuModelName(key.first) << " "
            << graph::opTypeName(key.second);
        const OpTimeModel &restored_op = it->second;
        EXPECT_EQ(restored_op.usable, fresh_op.usable);
        EXPECT_EQ(restored_op.quadratic, fresh_op.quadratic);
        EXPECT_EQ(restored_op.points, fresh_op.points);
        EXPECT_NEAR(restored_op.medianUs, fresh_op.medianUs,
                    1e-6 * fresh_op.medianUs + 1e-9);
        if (fresh_op.usable) {
            EXPECT_NEAR(restored_op.r2, fresh_op.r2, 1e-3)
                << hw::gpuModelName(key.first) << " "
                << graph::opTypeName(key.second);
        }
    }

    // The comm fits come from iter rows, which round-trip directly.
    for (const auto &[gpu, fits] : fresh.comm.fits) {
        const auto it = restored.comm.fits.find(gpu);
        ASSERT_NE(it, restored.comm.fits.end());
        ASSERT_EQ(it->second.size(), fits.size());
        for (std::size_t k = 0; k < fits.size(); ++k) {
            EXPECT_EQ(it->second[k].valid, fits[k].valid);
            if (fits[k].valid) {
                EXPECT_NEAR(it->second[k].r2, fits[k].r2, 1e-4);
            }
        }
    }
}

} // namespace
} // namespace core
} // namespace ceer

/**
 * @file
 * Tests for the baseline strategies, the comparator predictors and the
 * cross-predictor evaluation harness.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "baselines/evaluate.h"
#include "baselines/predictor.h"
#include "cloud/instances.h"
#include "core/trainer.h"
#include "hw/op_cost.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "profile/profiler.h"

namespace ceer {
namespace baselines {
namespace {

using cloud::InstanceCatalog;
using hw::GpuModel;

TEST(StrategyTest, CheapestIsOneGpuG3)
{
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    const auto &pick = cheapestInstance(catalog.instances());
    EXPECT_EQ(pick.name, "g3s.xlarge");
    EXPECT_DOUBLE_EQ(pick.hourlyUsd, 0.75);
}

TEST(StrategyTest, LatestGenerationIsLargestP3)
{
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    const auto &pick = latestGenerationInstance(catalog.instances());
    EXPECT_EQ(pick.gpu, GpuModel::V100);
    EXPECT_EQ(pick.numGpus, 4);
}

TEST(StrategyTest, LatestGenerationRespectsHourlyBudget)
{
    // Paper Sec. V ($3/hr + 6c): the largest P3 within budget is the
    // 1-GPU p3.2xlarge.
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    const auto &pick =
        latestGenerationInstance(catalog.instances(), 3.06);
    EXPECT_EQ(pick.name, "p3.2xlarge");
    EXPECT_EQ(pick.numGpus, 1);
}

TEST(StrategyTest, EmptyOrUnsatisfiableIsFatal)
{
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    EXPECT_DEATH(cheapestInstance({}), "empty");
    EXPECT_DEATH(latestGenerationInstance(catalog.instances(), 0.10),
                 "budget");
}

TEST(AblationOptionsTest, TogglesMatchTheirNames)
{
    // Distinct powers of two: each sum names exactly its terms.
    core::IterationTerms terms;
    terms.heavyUs = 1.0;
    terms.lightUs = 2.0;
    terms.cpuUs = 4.0;
    terms.commUs = 8.0;
    EXPECT_EQ(heavyOnlyUs(terms), 9.0);
    EXPECT_EQ(noCommUs(terms), 7.0);
    EXPECT_EQ(terms.totalUs(), 15.0);
}

TEST(FlopsPredictorTest, OrdersGpusByPeakOnly)
{
    const graph::Graph g = models::buildInceptionV1(32);
    const FlopsPredictor predictor(0.5);
    const double p3 = predictor.predictIterationUs(g, GpuModel::V100);
    const double p2 = predictor.predictIterationUs(g, GpuModel::K80);
    EXPECT_GT(p2, p3);
    // Peak-FLOPS ratio V100/K80 is 5x, far from the observed ~10x
    // heavy-op gap: exactly the failure mode PALEO-style models have.
    EXPECT_NEAR(p2 / p3, 14.0 / 2.8, 0.1);
}

TEST(FlopsPredictorTest, RejectsBadUtilization)
{
    EXPECT_DEATH(FlopsPredictor(0.0), "utilization");
    EXPECT_DEATH(FlopsPredictor(1.5), "utilization");
}

TEST(FlopsPredictorTest, PinsUtilizationConstant)
{
    // The PALEO-style estimate is exactly sum(flops) over GPU nodes
    // divided by peak * utilization, with the paper-default 50%
    // utilization. Pinned so a silent constant change cannot slip by.
    const graph::Graph g = models::buildInceptionV1(32);
    double total_flops = 0.0;
    for (const graph::Node &node : g.nodes()) {
        if (node.device() == graph::Device::Gpu)
            total_flops += hw::opCost(node).flops;
    }
    const hw::GpuSpec &spec = hw::gpuSpec(GpuModel::V100);
    const FlopsPredictor defaulted;
    EXPECT_DOUBLE_EQ(defaulted.predictIterationUs(g, GpuModel::V100),
                     total_flops / (spec.peakTflops * 0.5 * 1e6));
}

TEST(FlopsPredictorTest, ZeroFlopGraphPredictsZero)
{
    // No GPU work means a zero estimate: the model has no launch
    // overhead or floor term (unlike the trained engines' 1us op
    // floor), which is itself part of its failure mode.
    const graph::Graph empty("empty");
    const FlopsPredictor predictor(0.5);
    for (const GpuModel gpu : hw::allGpuModels())
        EXPECT_EQ(predictor.predictIterationUs(empty, gpu), 0.0);
}

TEST(StrategyTest, NoLatestGenerationCandidateIsFatal)
{
    // A candidate list with no P3 at all (not just none in budget)
    // must die with the contextual message, not return garbage.
    InstanceCatalog catalog;
    catalog.add({"g3s.xlarge", GpuModel::M60, 1, 0.75, false});
    catalog.add({"p2.xlarge", GpuModel::K80, 1, 0.90, false});
    EXPECT_DEATH(latestGenerationInstance(catalog.instances()),
                 "no P3 candidate");
}

// --- The evaluation harness ---

/** Shared fixture: a small profile dataset collected once. */
const profile::ProfileDataset &
evalDataset()
{
    static const profile::ProfileDataset dataset = [] {
        profile::CollectOptions options;
        options.iterations = 8;
        return profile::collectProfiles({"vgg_11", "inception_v1"},
                                        options);
    }();
    return dataset;
}

/** The one engine of a single-name factory call. */
std::unique_ptr<Predictor>
onlyEngine(const std::string &name,
           const profile::ProfileDataset &dataset)
{
    return std::move(makePredictors({name}, dataset).front());
}

TEST(EvalSweepTest, ParallelSweepIsByteIdentical)
{
    const std::vector<std::unique_ptr<Predictor>> predictors =
        makePredictors({}, evalDataset());
    EvalOptions options;
    options.models = {"alexnet", "vgg_19"};
    options.ks = {1, 2, 4};
    options.evalIterations = 5;

    std::string serial_csv, serial_cbf;
    for (const int threads : {1, 4}) {
        options.threads = threads;
        const EvalReport report = runEvaluation(predictors, options);
        std::ostringstream csv, cbf;
        report.saveCsv(csv);
        report.saveCbf(cbf);
        if (threads == 1) {
            serial_csv = csv.str();
            serial_cbf = cbf.str();
        } else {
            EXPECT_EQ(serial_csv, csv.str());
            EXPECT_EQ(serial_cbf, cbf.str());
        }
    }
    EXPECT_FALSE(serial_csv.empty());
}

TEST(EvalSweepTest, ReportCoversTheFullGrid)
{
    const std::vector<std::unique_ptr<Predictor>> predictors =
        makePredictors({}, evalDataset());
    EvalOptions options;
    options.models = {"alexnet"};
    options.ks = {1, 2};
    options.evalIterations = 5;
    const EvalReport report = runEvaluation(predictors, options);
    // predictors x models x gpus x ks cells, one model row per
    // (predictor, model), one summary row per predictor.
    EXPECT_EQ(report.cells.size(), predictors.size() * 1 * 4 * 2);
    EXPECT_EQ(report.modelRows.size(), predictors.size());
    EXPECT_EQ(report.summary.size(), predictors.size());
    for (const EvalSummaryRow &row : report.summary) {
        EXPECT_GE(row.mapePct, 0.0);
        EXPECT_GE(row.rmseUs, 0.0);
        EXPECT_GE(row.agreementRate, 0.0);
        EXPECT_LE(row.agreementRate, 1.0);
    }
    // Registry order is preserved in the report.
    for (std::size_t p = 0; p < predictors.size(); ++p)
        EXPECT_EQ(report.summary[p].predictor, predictors[p]->name());
}

TEST(EvalSweepTest, CompilesOnePlanPerCeerEngineAndModel)
{
    // Each Ceer engine compiles a model once for its whole GPU x k
    // slice; the other engines compile nothing.
    const std::vector<std::unique_ptr<Predictor>> predictors =
        makePredictors({}, evalDataset());
    EvalOptions options;
    options.models = {"alexnet", "vgg_19"};
    options.ks = {1, 2, 4};
    options.evalIterations = 2;
    options.threads = 4;
    const obs::ScopedEnable on(true);
    const auto builds = [] {
        return obs::snapshotMetrics().counterValue(
            "predictor.plan_builds");
    };
    const std::uint64_t before = builds();
    (void)runEvaluation(predictors, options);
    EXPECT_EQ(builds() - before, 3u * options.models.size());
}

TEST(EvalSweepTest, EmptyDatasetIsFatal)
{
    // Engines are trained when built, so an empty dataset stops an
    // evaluation at its first engine, before any sweep work.
    const profile::ProfileDataset empty;
    EXPECT_DEATH(makePredictors({}, empty),
                 "ceer: profile dataset has no op rows");
}

TEST(EvalSweepTest, EmptyGridOrPredictorListIsFatal)
{
    const std::vector<std::unique_ptr<Predictor>> predictors =
        makePredictors({}, evalDataset());
    EvalOptions options;
    EXPECT_DEATH(runEvaluation(predictors, options), "no models");
    options.models = {"alexnet"};
    EXPECT_DEATH(runEvaluation({}, options), "no predictors");
    options.ks = {};
    EXPECT_DEATH(runEvaluation(predictors, options),
                 "empty GPU or k grid");
    options.ks = {0};
    EXPECT_DEATH(runEvaluation(predictors, options), "invalid width");
}

// --- The predictor registry ---

TEST(PredictorRegistryTest, HasAtLeastSixEngines)
{
    EXPECT_GE(allPredictorNames().size(), 6u);
    // Empty request means every registered engine, registry order.
    const auto predictors = makePredictors({}, evalDataset());
    ASSERT_EQ(predictors.size(), allPredictorNames().size());
    for (std::size_t p = 0; p < predictors.size(); ++p)
        EXPECT_EQ(predictors[p]->name(), allPredictorNames()[p]);
}

TEST(PredictorRegistryTest, UnknownNameIsFatal)
{
    const profile::ProfileDataset &dataset = evalDataset();
    EXPECT_DEATH(makePredictors({"linear_scaling"}, dataset),
                 "unknown predictor");
    EXPECT_DEATH(makePredictors({"ceer", "nope"}, dataset),
                 "unknown predictor");
}

TEST(PredictorRegistryTest, MakePredictorsPreservesRequestOrder)
{
    const auto predictors = makePredictors({"profet", "ceer"},
                                           evalDataset());
    ASSERT_EQ(predictors.size(), 2u);
    EXPECT_EQ(predictors[0]->name(), "profet");
    EXPECT_EQ(predictors[1]->name(), "ceer");
}

TEST(PredictorRegistryTest, CeerIsTrainedOncePerFactoryCall)
{
    // The three Ceer variants share one trained model, and a request
    // without a Ceer variant trains none.
    const profile::ProfileDataset &dataset = evalDataset();
    const obs::ScopedEnable on(true);
    const auto cells = [] {
        return obs::snapshotMetrics().counterValue("trainer.cells");
    };
    std::uint64_t before = cells();
    (void)core::trainCeer(dataset);
    const std::uint64_t one_training = cells() - before;
    ASSERT_GT(one_training, 0u);

    before = cells();
    EXPECT_EQ(makePredictors({}, dataset).size(),
              allPredictorNames().size());
    EXPECT_EQ(cells() - before, one_training);

    before = cells();
    (void)makePredictors({"profet"}, dataset);
    EXPECT_EQ(cells() - before, 0u);
}

TEST(PredictorRegistryTest, GraphsAtOneAddressPredictIndependently)
{
    // alexnet and then vgg_19 are built in the same loop-body slot, so
    // they share a stack address. Each must get its own prediction,
    // the one a fresh engine gives it, not the plan of the graph that
    // lived there before.
    const profile::ProfileDataset &dataset = evalDataset();
    const std::unique_ptr<Predictor> engine =
        onlyEngine("ceer", dataset);
    const std::vector<GpuModel> gpus = hw::allGpuModels();
    const std::vector<int> ks = {1, 4};
    for (const char *model : {"alexnet", "vgg_19"}) {
        const graph::Graph g = models::buildModel(model, 32);
        std::vector<double> shared(gpus.size() * ks.size());
        std::vector<double> fresh(shared.size());
        engine->predictGrid(g, gpus, ks, shared);
        onlyEngine("ceer", dataset)->predictGrid(g, gpus, ks, fresh);
        EXPECT_EQ(shared, fresh) << model;
    }
}

TEST(PredictorRegistryTest, MisSizedGridOutputPanics)
{
    const std::unique_ptr<Predictor> engine =
        onlyEngine("paleo_flops", evalDataset());
    const graph::Graph g = models::buildAlexNet(32);
    const std::vector<GpuModel> gpus = {GpuModel::V100, GpuModel::K80};
    const std::vector<int> ks = {1, 2};
    std::vector<double> out(3);
    EXPECT_DEATH(engine->predictGrid(g, gpus, ks, out),
                 "paleo_flops: predictGrid output has 3 slots for a "
                 "2 x 2 grid");
}

/** The fixture dataset re-serialized without the rows named by @p drop
    ("op" rows for one GPU, or every "iter" row). */
profile::ProfileDataset
datasetWithout(const std::string &kind, const std::string &gpu)
{
    std::ostringstream csv;
    evalDataset().saveCsv(csv);
    std::istringstream lines(csv.str());
    std::ostringstream filtered;
    std::string line;
    while (std::getline(lines, line)) {
        const bool is_kind =
            line.rfind(kind + ",", 0) == 0;
        const bool mentions_gpu =
            gpu.empty() || line.find("," + gpu + ",") != std::string::npos;
        if (is_kind && mentions_gpu)
            continue;
        filtered << line << "\n";
    }
    std::istringstream in(filtered.str());
    profile::ProfileDataset dataset;
    std::string error;
    EXPECT_TRUE(
        profile::ProfileDataset::tryLoadCsv(in, &dataset, &error))
        << error;
    return dataset;
}

TEST(PredictorRegistryTest, MissingTrainingRowsAreContextualFatals)
{
    // PROFET fits on the reference GPU's op rows; DNNAbacus fits on
    // run-level iteration rows. Each engine must name itself and what
    // is missing, not crash or mispredict.
    const profile::ProfileDataset no_ref =
        datasetWithout("op", "V100");
    EXPECT_DEATH(makePredictors({"profet"}, no_ref),
                 "profet.*reference GPU");
    const profile::ProfileDataset no_iters = datasetWithout("iter", "");
    EXPECT_DEATH(makePredictors({"dnnabacus"}, no_iters),
                 "dnnabacus.*iteration profiles");
    const profile::ProfileDataset empty;
    EXPECT_DEATH(makePredictors({"ceer"}, empty), "ceer.*no op rows");
    EXPECT_DEATH(makePredictors({"paleo_flops"}, empty),
                 "paleo_flops.*empty");
}

} // namespace
} // namespace baselines
} // namespace ceer

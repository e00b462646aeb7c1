/**
 * @file
 * Compiled-prediction-plan tests: bit-identity of the plan evaluator
 * against a per-node scalar reference, predictBatch equivalence,
 * byte-identity of the parallel recommender sweep and the parallel
 * trainer at every thread count, and recommender constraint edge cases
 * under serial AND parallel sweeps.
 *
 * Built with -ffp-contract=off (see tests/CMakeLists.txt) so the
 * scalar reference cannot fuse multiply-add where the plan does not.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "cloud/instances.h"
#include "core/predictor.h"
#include "core/recommender.h"
#include "core/trainer.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "profile/features.h"
#include "profile/profiler.h"

namespace ceer {
namespace core {
namespace {

using graph::Graph;
using hw::GpuModel;

/** Bit pattern of a double (== would conflate +0.0 and -0.0). */
std::uint64_t
bits(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/**
 * Cheap fixture: trained on two CNNs at few iterations. Enough
 * distinct instances to exercise linear, quadratic and median
 * fallback paths; fast enough to share across every test here.
 */
const CeerModel &
cheapModel()
{
    static const CeerModel model = [] {
        profile::CollectOptions options;
        options.iterations = 12;
        const profile::ProfileDataset dataset = profile::collectProfiles(
            {"vgg_11", "inception_v1"}, options);
        return trainCeer(dataset);
    }();
    return model;
}

const CeerPredictor &
cheapPredictor()
{
    static const CeerPredictor predictor(cheapModel());
    return predictor;
}

/**
 * Scalar Eq. 2 terms built only from the public model API: one
 * classification per node; heavy estimates from OpTimeModel::predictUs
 * grouped per op type in first-appearance order, nodes in graph order;
 * a group with no usable fit on @p gpu (never profiled: light median;
 * unusable fit: clamped median) adds count * its flat estimate.
 */
IterationTerms
referenceTerms(const CeerModel &model, const Graph &g, GpuModel gpu,
               int num_gpus)
{
    struct Group
    {
        graph::OpType op;
        const OpTimeModel *fit; ///< Null for a flat group.
        double flatUs;
        double sumUs = 0.0;
        std::size_t count = 0;
    };
    std::vector<Group> groups;
    std::size_t light = 0, cpu = 0;
    for (const graph::Node &node : g.nodes()) {
        switch (model.classify(node.type)) {
          case OpClass::Cpu:
            ++cpu;
            break;
          case OpClass::Light:
            ++light;
            break;
          case OpClass::Heavy: {
            const std::vector<double> features =
                profile::opFeatures(node);
            auto group = std::find_if(
                groups.begin(), groups.end(),
                [&](const Group &candidate) {
                    return candidate.op == node.type;
                });
            if (group == groups.end()) {
                const OpTimeModel *fit = model.opModel(gpu, node.type);
                if (!fit) {
                    groups.push_back({node.type, nullptr,
                                      model.lightMedianUs});
                } else if (!fit->usable) {
                    groups.push_back(
                        {node.type, nullptr, fit->predictUs(features)});
                } else {
                    groups.push_back({node.type, fit, 0.0});
                }
                group = groups.end() - 1;
            }
            ++group->count;
            if (group->fit)
                group->sumUs += group->fit->predictUs(features);
            break;
          }
        }
    }

    IterationTerms terms;
    for (const Group &group : groups) {
        terms.heavyUs +=
            group.fit ? group.sumUs
                      : static_cast<double>(group.count) * group.flatUs;
    }
    terms.lightUs = static_cast<double>(light) * model.lightMedianUs;
    terms.cpuUs = static_cast<double>(cpu) * model.cpuMedianUs;
    terms.commUs = model.comm.overheadUs(
        gpu, num_gpus, static_cast<double>(g.totalParameters()));
    return terms;
}

/** The scalar full prediction: ((heavy + light) + cpu) + comm. */
double
referenceIterationUs(const CeerModel &model, const Graph &g,
                     GpuModel gpu, int num_gpus)
{
    const IterationTerms t = referenceTerms(model, g, gpu, num_gpus);
    double total = t.heavyUs;
    total += t.lightUs;
    total += t.cpuUs;
    total += t.commUs;
    return total;
}

/** How the plan evaluates one heavy (GPU, op) group. */
enum class Recipe { Linear, Quadratic, UnusableMedian, LightFallback };

Recipe
recipeOf(const CeerModel &model, GpuModel gpu, graph::OpType op)
{
    const OpTimeModel *fit = model.opModel(gpu, op);
    if (!fit)
        return Recipe::LightFallback;
    if (!fit->usable)
        return Recipe::UnusableMedian;
    return fit->quadratic ? Recipe::Quadratic : Recipe::Linear;
}

TEST(PredictPlanTest, MatchesScalarWalkBitForBit)
{
    // The cheap fixture profiles every heavy op on every GPU; erase
    // one fit (LRN on V100, as if never profiled there) so the
    // light-median fallback recipe is part of the proof too.
    CeerModel model = cheapModel();
    model.opModels.erase({GpuModel::V100, graph::OpType::Lrn});
    model.heavyOps.insert(graph::OpType::Lrn);
    const CeerPredictor predictor(std::move(model));
    // vgg_11 and inception_v1 are in the training set; every other zoo
    // model is held out and exercises the fallback recipes too.
    std::set<Recipe> seen;
    for (const std::string &name : models::allModelNames()) {
        const Graph g = models::buildModel(name, 32);
        const PredictPlan plan = predictor.compile(g);
        for (GpuModel gpu : hw::allGpuModels()) {
            for (std::size_t i = 0; i < plan.groupCount(); ++i)
                seen.insert(
                    recipeOf(predictor.model(), gpu, plan.groupOp(i)));
            for (int k : {1, 2, 4, 8}) {
                const IterationTerms scalar =
                    referenceTerms(predictor.model(), g, gpu, k);
                const IterationTerms compiled =
                    predictor.terms(plan, gpu, k);
                const std::string where = name + " gpu=" +
                                          hw::gpuModelName(gpu) +
                                          " k=" + std::to_string(k);
                EXPECT_EQ(bits(scalar.heavyUs), bits(compiled.heavyUs))
                    << where;
                EXPECT_EQ(bits(scalar.lightUs), bits(compiled.lightUs))
                    << where;
                EXPECT_EQ(bits(scalar.cpuUs), bits(compiled.cpuUs))
                    << where;
                EXPECT_EQ(bits(scalar.commUs), bits(compiled.commUs))
                    << where;
                // The full prediction and the two ablations, each
                // summed left to right as written here.
                EXPECT_EQ(bits(referenceIterationUs(predictor.model(), g,
                                                    gpu, k)),
                          bits(compiled.totalUs()))
                    << where;
                EXPECT_EQ(bits(scalar.heavyUs + scalar.commUs),
                          bits(baselines::heavyOnlyUs(compiled)))
                    << where;
                EXPECT_EQ(
                    bits(scalar.heavyUs + scalar.lightUs + scalar.cpuUs),
                    bits(baselines::noCommUs(compiled)))
                    << where;
            }
        }
    }
    // The proof above is only as wide as the recipes it touched.
    EXPECT_TRUE(seen.count(Recipe::Linear));
    EXPECT_TRUE(seen.count(Recipe::Quadratic));
    EXPECT_TRUE(seen.count(Recipe::UnusableMedian));
    EXPECT_TRUE(seen.count(Recipe::LightFallback));
}

TEST(PredictorTest, CompiledPlanMatchesNodeWalkAcrossZoo)
{
    // The acceptance bar of the compiled-plan path on the unmodified
    // fixture and default options (what the recommender evaluates):
    // for every zoo model, GPU and data-parallel width, the plan
    // evaluator must reproduce the scalar node walk bit for bit.
    const CeerPredictor &predictor = cheapPredictor();
    for (const std::string &name : models::allModelNames()) {
        const Graph g = models::buildModel(name, 32);
        const PredictPlan plan = predictor.compile(g);
        for (GpuModel gpu : hw::allGpuModels()) {
            for (int k : {1, 2, 4, 8}) {
                EXPECT_EQ(bits(referenceIterationUs(predictor.model(), g,
                                                    gpu, k)),
                          bits(predictor.predictIterationUs(plan, gpu,
                                                            k)))
                    << name << " " << hw::gpuModelName(gpu)
                    << " k=" << k;
            }
        }
    }
}

TEST(PredictPlanTest, PlanCountsMatchGraph)
{
    const CeerPredictor &predictor = cheapPredictor();
    const Graph g = models::buildModel("inception_v1", 32);
    const PredictPlan plan = predictor.compile(g);
    EXPECT_EQ(plan.nodeCount(), g.size());
    EXPECT_EQ(plan.heavyCount() + plan.lightCount() + plan.cpuCount(),
              g.size());
    EXPECT_GT(plan.groupCount(), 0u);
    EXPECT_EQ(plan.paramCount(), g.totalParameters());
}

TEST(PredictPlanTest, TrainingPredictionMatchesScalar)
{
    const CeerPredictor &predictor = cheapPredictor();
    const Graph g = models::buildModel("vgg_19", 32);
    const PredictPlan plan = predictor.compile(g);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    for (const cloud::GpuInstance &instance : catalog.instances()) {
        const TrainingPrediction scalar = makeTrainingPrediction(
            referenceIterationUs(predictor.model(), g, instance.gpu,
                                 instance.numGpus),
            instance.numGpus, 1'200'000, 32);
        const TrainingPrediction compiled = predictor.predictTraining(
            plan, instance.gpu, instance.numGpus, 1'200'000, 32);
        EXPECT_EQ(scalar.iterations, compiled.iterations);
        EXPECT_EQ(bits(scalar.iterationUs), bits(compiled.iterationUs));
        EXPECT_EQ(bits(scalar.hours), bits(compiled.hours));
    }
}

TEST(PredictPlanTest, PredictBatchMatchesIndividualCalls)
{
    const CeerPredictor &predictor = cheapPredictor();
    const Graph g = models::buildModel("inception_v1", 32);
    const PredictPlan plan = predictor.compile(g);
    std::vector<PredictRequest> requests;
    for (GpuModel gpu : hw::allGpuModels())
        for (int k : {1, 2, 4, 8})
            requests.push_back({gpu, k});
    const std::vector<double> batch =
        predictor.predictBatch(plan, requests);
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(bits(batch[i]),
                  bits(predictor.predictIterationUs(
                      plan, requests[i].gpu, requests[i].numGpus)))
            << "request " << i;
    }
}

TEST(PredictPlanTest, MemoizedPlanIsReusableAcrossGpus)
{
    // Two evaluation rounds over one plan: the second round reads the
    // same compiled per-GPU heavy term and must return the same bits
    // as the first.
    const CeerPredictor &predictor = cheapPredictor();
    const Graph g = models::buildModel("vgg_11", 32);
    const PredictPlan plan = predictor.compile(g);
    for (GpuModel gpu : hw::allGpuModels()) {
        const double first = predictor.predictIterationUs(plan, gpu, 1);
        const double second = predictor.predictIterationUs(plan, gpu, 1);
        EXPECT_EQ(bits(first), bits(second));
    }
}

TEST(PredictPlanTest, PlanSizeDoesNotGrowWithNodeCount)
{
    // A compiled plan keeps one number per (group, GPU) and per GPU,
    // not the feature matrices it was computed from: its size is
    // bounded by group count x GPU slots whatever the node count.
    const CeerPredictor &predictor = cheapPredictor();
    const std::size_t slots = hw::allGpuModels().size();
    for (const std::string &name : models::allModelNames()) {
        const Graph g = models::buildModel(name, 32);
        const PredictPlan plan = predictor.compile(g);
        const std::size_t bound =
            sizeof plan +
            (plan.groupCount() + 1) * (slots + 1) * sizeof(double);
        EXPECT_LE(plan.approxBytes(), bound)
            << name << ": " << plan.groupCount() << " groups, "
            << plan.nodeCount() << " nodes";
    }
}

/** Field-by-field bit comparison of two evaluations. */
void
expectEvaluationsIdentical(const CandidateEvaluation &a,
                           const CandidateEvaluation &b)
{
    EXPECT_EQ(a.instance.name, b.instance.name);
    EXPECT_EQ(a.prediction.iterations, b.prediction.iterations);
    EXPECT_EQ(bits(a.prediction.iterationUs),
              bits(b.prediction.iterationUs));
    EXPECT_EQ(bits(a.prediction.hours), bits(b.prediction.hours));
    EXPECT_EQ(bits(a.costUsd), bits(b.costUsd));
    EXPECT_EQ(a.withinHourly, b.withinHourly);
    EXPECT_EQ(a.withinTotal, b.withinTotal);
    EXPECT_EQ(a.fitsMemory, b.fitsMemory);
}

TEST(ParallelRecommenderTest, ByteIdenticalAtAnyThreadCount)
{
    const CeerPredictor &predictor = cheapPredictor();
    const Graph g = models::buildModel("inception_v3", 32);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    WorkloadSpec workload{&g, 1'200'000, 32};

    const Recommendation serial =
        recommend(predictor, workload, catalog.instances(),
                  Objective::MinCost, Constraints{}, /*threads=*/1);
    for (int threads : {2, 4, 8}) {
        const Recommendation parallel =
            recommend(predictor, workload, catalog.instances(),
                      Objective::MinCost, Constraints{}, threads);
        EXPECT_EQ(parallel.bestIndex, serial.bestIndex)
            << threads << " threads";
        ASSERT_EQ(parallel.evaluations.size(),
                  serial.evaluations.size());
        for (std::size_t i = 0; i < serial.evaluations.size(); ++i) {
            SCOPED_TRACE(testing::Message()
                         << threads << " threads, candidate " << i);
            expectEvaluationsIdentical(serial.evaluations[i],
                                       parallel.evaluations[i]);
        }
    }
}

TEST(ParallelRecommenderTest, AutoThreadsForkOnlyAtBreakEven)
{
    // threads = 0 sweeps serially below kParallelSweepMinCandidates
    // (no helper seat is posted) and forks at or above it whenever the
    // host has a second hardware thread. Either way the result matches
    // the serial sweep byte for byte.
    obs::ScopedEnable on(true);
    const CeerPredictor &predictor = cheapPredictor();
    const Graph g = models::buildModel("inception_v3", 32);
    WorkloadSpec workload{&g, 1'200'000, 32};
    const bool multi_core = std::thread::hardware_concurrency() >= 2;
    struct Case
    {
        cloud::InstanceCatalog catalog;
        bool forks;
    };
    const Case cases[] = {
        {cloud::InstanceCatalog::awsOnDemand(), false},
        {cloud::InstanceCatalog::syntheticFleet(2048), multi_core},
    };
    for (const Case &c : cases) {
        const std::vector<cloud::GpuInstance> &candidates =
            c.catalog.instances();
        SCOPED_TRACE(testing::Message() << candidates.size()
                                        << " candidates");
        const Recommendation serial =
            recommend(predictor, workload, candidates, Objective::MinCost,
                      Constraints{}, /*threads=*/1);
        const std::uint64_t seats_before =
            obs::snapshotMetrics().counterValue("pool.tasks");
        const Recommendation automatic =
            recommend(predictor, workload, candidates, Objective::MinCost,
                      Constraints{}, /*threads=*/0);
        const std::uint64_t seats =
            obs::snapshotMetrics().counterValue("pool.tasks") -
            seats_before;
        EXPECT_EQ(seats > 0, c.forks) << seats << " seats posted";
        EXPECT_EQ(automatic.bestIndex, serial.bestIndex);
        ASSERT_EQ(automatic.evaluations.size(), serial.evaluations.size());
        for (std::size_t i = 0; i < serial.evaluations.size(); ++i) {
            SCOPED_TRACE(testing::Message() << "candidate " << i);
            expectEvaluationsIdentical(serial.evaluations[i],
                                       automatic.evaluations[i]);
        }
    }
}

TEST(ParallelTrainerTest, ByteIdenticalAtAnyThreadCount)
{
    profile::CollectOptions collect;
    collect.iterations = 12;
    const profile::ProfileDataset dataset = profile::collectProfiles(
        {"vgg_11", "inception_v1"}, collect);

    TrainOptions serial_options;
    serial_options.threads = 1;
    std::stringstream serial_doc;
    trainCeer(dataset, serial_options).save(serial_doc);

    for (int threads : {2, 4, 8, 0}) {
        TrainOptions options;
        options.threads = threads;
        std::stringstream doc;
        trainCeer(dataset, options).save(doc);
        EXPECT_EQ(doc.str(), serial_doc.str())
            << "threads=" << threads;
    }
}

TEST(ParallelTrainerTest, ByteIdenticalWithObservabilityOn)
{
    // Trainer timers and counters must not change the fitted model:
    // the saved document matches the obs-off run byte for byte at
    // every thread count.
    profile::CollectOptions collect;
    collect.iterations = 12;
    const profile::ProfileDataset dataset = profile::collectProfiles(
        {"vgg_11", "inception_v1"}, collect);
    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(threads);
        TrainOptions options;
        options.threads = threads;
        std::stringstream off_doc, on_doc;
        {
            obs::ScopedEnable off(false);
            trainCeer(dataset, options).save(off_doc);
        }
        {
            obs::ScopedEnable on(true);
            trainCeer(dataset, options).save(on_doc);
        }
        EXPECT_EQ(on_doc.str(), off_doc.str());
    }
}

TEST(ParallelRecommenderTest, ByteIdenticalWithObservabilityOn)
{
    // The recommender's sweep span/timer and winner-margin gauge are
    // read-only: candidate scores and the winner match the obs-off
    // sweep bit for bit at every thread count.
    const CeerPredictor &predictor = cheapPredictor();
    const Graph g = models::buildModel("inception_v3", 32);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    WorkloadSpec workload{&g, 1'200'000, 32};

    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(threads);
        Recommendation off_r, on_r;
        {
            obs::ScopedEnable off(false);
            off_r = recommend(predictor, workload, catalog.instances(),
                              Objective::MinCost, Constraints{},
                              threads);
        }
        {
            obs::ScopedEnable on(true);
            on_r = recommend(predictor, workload, catalog.instances(),
                             Objective::MinCost, Constraints{},
                             threads);
        }
        EXPECT_EQ(on_r.bestIndex, off_r.bestIndex);
        ASSERT_EQ(on_r.evaluations.size(), off_r.evaluations.size());
        for (std::size_t i = 0; i < off_r.evaluations.size(); ++i) {
            SCOPED_TRACE(testing::Message() << "candidate " << i);
            expectEvaluationsIdentical(off_r.evaluations[i],
                                       on_r.evaluations[i]);
        }
    }
}

/**
 * The constraint edge cases below run under both the serial and the
 * parallel sweep: constraint evaluation must not depend on who
 * computed the candidate.
 */
class RecommenderConstraintTest : public testing::TestWithParam<int>
{
  protected:
    int threads() const { return GetParam(); }
};

TEST_P(RecommenderConstraintTest, HourlyToleranceBoundary)
{
    const CeerPredictor &predictor = cheapPredictor();
    const Graph g = models::buildModel("vgg_11", 32);
    WorkloadSpec workload{&g, 100'000, 32};
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    const cloud::GpuInstance &p3 = catalog.find("p3.2xlarge");

    // Budget below the price: infeasible without tolerance...
    Constraints constraints;
    constraints.hourlyBudgetUsd = p3.hourlyUsd - 0.42;
    constraints.enforceGpuMemory = false;
    Recommendation r = recommend(predictor, workload, {p3},
                                 Objective::MinCost, constraints,
                                 threads());
    EXPECT_EQ(r.bestIndex, -1);
    EXPECT_FALSE(r.evaluations[0].withinHourly);

    // ...feasible when the paper's $0.42 tolerance closes the gap
    // exactly (budget + tolerance == price is within budget; the
    // comparison is <=, not <).
    constraints.hourlyToleranceUsd = 0.42;
    r = recommend(predictor, workload, {p3}, Objective::MinCost,
                  constraints, threads());
    EXPECT_EQ(r.bestIndex, 0);
    EXPECT_TRUE(r.evaluations[0].withinHourly);
}

TEST_P(RecommenderConstraintTest, GpuMemoryEnforcement)
{
    const CeerPredictor &predictor = cheapPredictor();
    // VGG-19 at batch 512 overflows every catalog GPU's memory.
    const Graph g = models::buildModel("vgg_19", 512);
    WorkloadSpec workload{&g, 100'000, 512};
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();

    Constraints enforced;
    enforced.enforceGpuMemory = true;
    const Recommendation strict =
        recommend(predictor, workload, catalog.instances(),
                  Objective::MinCost, enforced, threads());
    EXPECT_EQ(strict.bestIndex, -1);
    for (const CandidateEvaluation &evaluation : strict.evaluations)
        EXPECT_FALSE(evaluation.fitsMemory);

    Constraints relaxed;
    relaxed.enforceGpuMemory = false;
    const Recommendation loose =
        recommend(predictor, workload, catalog.instances(),
                  Objective::MinCost, relaxed, threads());
    EXPECT_GE(loose.bestIndex, 0);
    for (const CandidateEvaluation &evaluation : loose.evaluations)
        EXPECT_TRUE(evaluation.fitsMemory);
}

TEST_P(RecommenderConstraintTest, EmptyCandidateList)
{
    const CeerPredictor &predictor = cheapPredictor();
    const Graph g = models::buildModel("vgg_11", 32);
    WorkloadSpec workload{&g, 100'000, 32};
    const Recommendation r =
        recommend(predictor, workload, {}, Objective::MinCost,
                  Constraints{}, threads());
    EXPECT_EQ(r.bestIndex, -1);
    EXPECT_TRUE(r.evaluations.empty());
}

TEST_P(RecommenderConstraintTest, TieBreaksToFirstCandidate)
{
    const CeerPredictor &predictor = cheapPredictor();
    const Graph g = models::buildModel("vgg_11", 32);
    WorkloadSpec workload{&g, 100'000, 32};
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    // Identical twins: same GPU, k and price -> identical scores.
    cloud::GpuInstance first = catalog.find("p2.xlarge");
    cloud::GpuInstance second = first;
    first.name = "twin-a";
    second.name = "twin-b";
    Constraints constraints;
    constraints.enforceGpuMemory = false;
    const Recommendation r =
        recommend(predictor, workload, {first, second},
                  Objective::MinCost, constraints, threads());
    // Strict < in the reduction: the earlier candidate keeps a tie.
    EXPECT_EQ(r.bestIndex, 0);
    EXPECT_EQ(r.best().instance.name, "twin-a");
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, RecommenderConstraintTest,
                         testing::Values(1, 4),
                         [](const testing::TestParamInfo<int> &info) {
                             return info.param == 1 ? "Serial"
                                                    : "Parallel4";
                         });

} // namespace
} // namespace core
} // namespace ceer

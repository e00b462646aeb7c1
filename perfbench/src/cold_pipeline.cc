// cold_pipeline: the cold `ceer recommend --auto-train --threads N`
// path, run in-process and repeated. Every stage — profile, train,
// compile, recommend — is inside the timed pipeline; nothing is cached
// from one pipeline to the next.

#include <algorithm>
#include <iostream>

#include "core/recommender.h"
#include "core/trainer.h"
#include "models/model_zoo.h"
#include "perfbench.h"
#include "profile/profiler.h"
#include "spans.h"
#include "util/strings.h"

namespace perfbench {

namespace {

/**
 * The tail quantile cold_pipeline publishes as latency_tail_us. A run
 * completes only tens of pipelines, too few to put 10 samples beyond
 * p90 or p99; p75 needs 40, and every run completes at least that many.
 */
constexpr double kPipelineTailQ = 0.75;

/** Set-up repetitions; setup_s is their median. */
constexpr int kSetupReps = 5;

} // namespace

PipelineRun
runPipeline(std::uint64_t seed, int threads, std::int64_t request)
{
    PipelineRun run;
    const serve::RecommendRequest target = pipelineRequest();
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    profile::CollectOptions collect;
    collect.iterations = kPipelineIters;
    collect.batch = target.batch;
    collect.seed = seed;
    collect.threads = threads;
    core::TrainOptions train;
    train.threads = threads;

    core::Recommendation recommendation;
    const double wall0 = nowSeconds();
    const double cpu0 = processCpuSeconds();
    {
        Scope pipeline("pipeline", request);
        const profile::ProfileDataset dataset = [&] {
            Scope span("profile.collectProfiles");
            return profile::collectProfiles(models::trainingSetNames(),
                                            collect);
        }();
        run.collectWallS = nowSeconds() - wall0;
        run.collectCpuS = processCpuSeconds() - cpu0;
        run.model = [&] {
            Scope span("core.trainCeer");
            return core::trainCeer(dataset, train);
        }();
        const core::CeerPredictor predictor(run.model);
        const graph::Graph g = [&] {
            Scope span("models.buildModel");
            return models::buildModel(target.model, target.batch);
        }();
        const core::PredictPlan plan = [&] {
            Scope span("core.compile");
            return predictor.compile(g);
        }();
        Scope span("core.recommend");
        const core::WorkloadSpec workload{&g, target.datasetSamples,
                                          target.batch};
        recommendation = core::recommend(
            predictor, plan, workload, catalog.instances(),
            core::objectiveFunction(core::Objective::MinCost), {},
            threads);
    }
    run.wallS = nowSeconds() - wall0;
    run.cpuS = processCpuSeconds() - cpu0;
    run.reply = serve::encodeRecommendResponse(
        serve::responseFromRecommendation(recommendation));
    return run;
}

RunResult
runColdPipeline(const Options &options)
{
    RunResult result;
    const int threads = hostThreads();
    SpanRecorder &recorder = SpanRecorder::instance();
    LayerReport layers;
    layers.host = warmAndProbeHost(threads);

    // Set-up: input preparation plus one warm-up pipeline, which
    // faults in code, allocator arenas and the worker pool.
    std::vector<double> setups;
    std::vector<std::string> replies;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double start = nowSeconds();
        replies.push_back(runPipeline(options.seed, threads, -1).reply);
        setups.push_back(nowSeconds() - start);
    }

    // Timed window. The traced run alternates untraced and traced
    // pipelines so trace.overhead compares like with like.
    std::vector<double> walls, cpus, tracedWalls;
    std::vector<PipelineRun> traced;
    const std::size_t minRuns = samplesForQuantile(kPipelineTailQ);
    const double start = nowSeconds();
    while (nowSeconds() - start < options.seconds ||
           walls.size() < (options.trace ? 3 : minRuns)) {
        PipelineRun run = runPipeline(options.seed, threads, -1);
        walls.push_back(run.wallS);
        cpus.push_back(run.cpuS);
        replies.push_back(std::move(run.reply));
        if (!options.trace)
            continue;
        recorder.setEnabled(true);
        run = runPipeline(options.seed, threads,
                          static_cast<std::int64_t>(traced.size()));
        recorder.setEnabled(false);
        tracedWalls.push_back(run.wallS);
        replies.push_back(run.reply);
        traced.push_back(std::move(run));
    }
    const double window = nowSeconds() - start;

    // Correctness: every pipeline must recommend exactly what a
    // threads=1 pipeline on the same inputs recommends. The reference
    // run also counts operator-new calls per pipeline.
    setAllocCounting(options.trace);
    const std::uint64_t allocs0 = allocCount();
    const PipelineRun reference = runPipeline(options.seed, 1, -1);
    setAllocCounting(false);
    layers.allocsPerReq = static_cast<double>(allocCount() - allocs0);
    result.attempted = static_cast<std::int64_t>(replies.size()) + 1;
    for (const std::string &reply : replies)
        if (reply != reference.reply)
            result.fail("cold pipeline recommendation differs from the "
                        "threads=1 pipeline");

    std::vector<double> sorted = walls;
    std::sort(sorted.begin(), sorted.end());
    std::cout << util::format(
        "cold_pipeline: %zu pipelines in %.2f s, threads %d, "
        "latency_tail_us is p%.0f\n",
        walls.size(), window, threads, kPipelineTailQ * 100.0);
    if (!options.trace) {
        const std::optional<double> tail =
            publishedQuantile(sorted, kPipelineTailQ);
        result.add("setup_s", median(setups), "s");
        result.add("latency_p50_us", median(walls) * 1e6, "us");
        result.add("latency_tail_us", tail.value_or(-1.0) * 1e6, "us");
        result.add("throughput_rps",
                   static_cast<double>(walls.size()) / window, "req/s");
        result.add("cpu_per_op_us", median(cpus) * 1e6, "us");
        result.add("peak_rss_mb", peakRssMib(), "MiB");
        return result;
    }

    // Traced run: per-layer figures.
    layers.traceOverhead = median(tracedWalls) / median(walls);
    addPipelineLayers(traced, threads, &layers);
    recorder.setEnabled(true);
    layers.sim = replaySimulator(options.seed);
    const core::CeerPredictor predictor(reference.model);
    if (!replayStages(predictor,
                      cloud::InstanceCatalog::awsOnDemand().instances(),
                      {pipelineRequest()}, &layers.stages))
        result.fail("in-process stage replay: warm plan lookup missed");
    const std::string dir = seedDir(options);
    if (!saveModel(reference.model, dir + "/model.cbf") ||
        !saveFleet(options.seed, dir + "/fleet.cbf") ||
        !measureLoads(dir + "/model.cbf", dir + "/fleet.cbf",
                      &layers.io))
        result.fail("writing or loading the input files failed");
    recorder.setEnabled(false);
    // No server in this workload: nothing is transported, no plan is
    // cached, every pipeline compiles its one plan.
    layers.transportUs = 0.0;
    layers.hitRatio = 0.0;
    layers.compilesPerKreq = 1000.0;
    addLayerMetrics(layers, &result);
    finishTrace(options, &result);
    return result;
}

} // namespace perfbench

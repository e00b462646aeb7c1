// Per-layer measurements of the traced run. Each one wraps the public
// calls of a single layer in spans and reads the figures back from the
// span recorder, so the numbers and the written trace agree.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <unordered_map>

#include "core/recommender.h"
#include "models/model_zoo.h"
#include "perfbench.h"
#include "profile/profiler.h"
#include "serve/plan_cache.h"
#include "sim/simulator.h"
#include "spans.h"
#include "util/strings.h"

namespace perfbench {

namespace {

/** Warm passes over the replayed requests (at least this many spans
 *  per stage are taken; small request sets get more passes). */
constexpr std::size_t kReplaySpans = 400;

/** Loads timed per input file. */
constexpr int kLoadReps = 5;

double
medianSpanUs(const std::string &name)
{
    return median(SpanRecorder::instance().durationsUs(name));
}

} // namespace

int
hostThreads()
{
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

std::string
seedDir(const Options &options)
{
    const std::string dir =
        options.dataDir + "/seed-" + std::to_string(options.seed);
    std::filesystem::create_directories(dir);
    return dir;
}

bool
saveModel(const core::CeerModel &model, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    model.saveCbf(out);
    return static_cast<bool>(out);
}

bool
saveFleet(std::uint64_t seed, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    fleetCatalog(seed).saveCbf(out);
    return static_cast<bool>(out);
}

SimReplay
replaySimulator(std::uint64_t seed)
{
    // The same run set, seeds and iteration count collectProfiles uses
    // in the pipeline, run serially so each span is one layer call.
    SimReplay replay;
    double unobservedUs = 0.0;
    for (const std::string &name : models::trainingSetNames()) {
        const graph::Graph g = models::buildModel(name, 32);
        g.consumers();
        for (hw::GpuModel gpu : hw::allGpuModels()) {
            for (int k = 1; k <= 4; ++k) {
                sim::SimConfig config;
                config.gpu = gpu;
                config.numGpus = k;
                config.seed = profile::runSeed(seed, name, gpu, k);
                if (k == 1) {
                    Scope span("profile.profileRun");
                    profile::profileRun(g, name, config, kPipelineIters);
                    continue;
                }
                sim::TrainingSimulator simulator(g, config);
                const double start = nowSeconds();
                {
                    Scope span("sim.run");
                    simulator.run(kPipelineIters);
                }
                unobservedUs += (nowSeconds() - start) * 1e6;
                replay.iters += kPipelineIters;
            }
        }
    }
    replay.runUsPerIter = unobservedUs / replay.iters;
    replay.observedRunMs = medianSpanUs("profile.profileRun") / 1e3;
    return replay;
}

bool
replayStages(const core::CeerPredictor &predictor,
             const std::vector<cloud::GpuInstance> &catalog,
             const std::vector<serve::RecommendRequest> &requests,
             StageReplay *out)
{
    // The distinct (GPU, k) cells the server warms a new plan with.
    std::vector<core::PredictRequest> cells;
    for (const cloud::GpuInstance &instance : catalog) {
        const bool seen = std::any_of(
            cells.begin(), cells.end(), [&](const core::PredictRequest &c) {
                return c.gpu == instance.gpu &&
                       c.numGpus == instance.numGpus;
            });
        if (!seen)
            cells.push_back({instance.gpu, instance.numGpus});
    }

    std::vector<std::string> payloads;
    for (const serve::RecommendRequest &request : requests)
        payloads.push_back(serve::encodeRecommendRequest(request));

    serve::PlanCache cache(kPlanCacheCapacity);
    std::unordered_map<std::string, std::uint64_t> fingerprints;
    io::CbfFile requestFile;
    serve::RecommendRequest decoded;
    core::Recommendation sweep;
    serve::RecommendResponse response;
    serve::ResponseEncodeScratch encodeScratch;
    std::string payload, frame;
    std::vector<double> replyBytes;
    const std::size_t passes =
        std::max<std::size_t>(2, kReplaySpans / requests.size() + 1);
    std::int64_t id = 0;
    for (std::size_t pass = 0; pass < passes; ++pass) {
        for (const std::string &request_payload : payloads) {
            Scope request("serve.request", id++);
            std::string error;
            {
                Scope span("serve.decode");
                if (!serve::decodeRecommendRequestView(
                        request_payload.data(), request_payload.size(),
                        &requestFile, &decoded, &error))
                    return false;
            }
            const std::string key = requestKey(decoded);
            std::shared_ptr<const serve::PlanEntry> entry;
            const auto known = fingerprints.find(key);
            if (known == fingerprints.end()) {
                // First request for this key: the miss path.
                auto g = [&] {
                    Scope span("models.buildModel");
                    return std::make_shared<const graph::Graph>(
                        models::buildModel(decoded.model, decoded.batch));
                }();
                const std::uint64_t fingerprint = [&] {
                    Scope span("serve.fingerprint");
                    return serve::graphFingerprint(*g);
                }();
                fingerprints.emplace(key, fingerprint);
                Scope span("serve.plan_compile");
                entry = cache.getOrCompile(fingerprint, 1, [&] {
                    serve::PlanEntry fresh;
                    fresh.fingerprint = fingerprint;
                    fresh.generation = 1;
                    fresh.graph = g;
                    auto plan = [&] {
                        Scope compile("core.compile");
                        return std::make_shared<const core::PredictPlan>(
                            predictor.compile(*g));
                    }();
                    {
                        Scope warm("core.plan_warm");
                        predictor.predictBatch(*plan, cells);
                    }
                    {
                        Scope fits("core.memory_fits");
                        fresh.fits = core::computeMemoryFits(*g);
                    }
                    fresh.bytes = plan->approxBytes();
                    fresh.plan = std::move(plan);
                    return fresh;
                });
            } else {
                Scope span("serve.plan_lookup");
                entry = cache.tryGet(known->second, 1);
                if (!entry)
                    return false;
            }
            const core::WorkloadSpec workload{entry->graph.get(),
                                              decoded.datasetSamples,
                                              decoded.batch};
            core::Constraints constraints;
            constraints.hourlyBudgetUsd = decoded.hourlyBudgetUsd;
            constraints.hourlyToleranceUsd = decoded.hourlyToleranceUsd;
            constraints.totalBudgetUsd = decoded.totalBudgetUsd;
            constraints.enforceGpuMemory = decoded.enforceGpuMemory;
            const core::ObjectiveFn objective = core::objectiveFunction(
                decoded.objective == "time"
                    ? core::Objective::MinTrainingTime
                    : core::Objective::MinCost);
            {
                Scope span("core.sweep");
                core::recommendInto(predictor, *entry->plan, workload,
                                    catalog, objective, constraints, 1,
                                    &sweep, &entry->fits);
            }
            {
                Scope span("serve.encode");
                serve::responseFromRecommendationInto(sweep, &response);
                serve::encodeRecommendResponseInto(
                    response, &encodeScratch, &payload);
                serve::buildFrameInto(serve::FrameType::Response,
                                      payload, &frame);
            }
            replyBytes.push_back(static_cast<double>(frame.size()));
        }
    }
    out->decodeUs = medianSpanUs("serve.decode");
    out->buildUs = medianSpanUs("models.buildModel");
    out->fingerprintUs = medianSpanUs("serve.fingerprint");
    out->compileUs = medianSpanUs("core.compile");
    out->planWarmUs = medianSpanUs("core.plan_warm");
    out->memoryFitsUs = medianSpanUs("core.memory_fits");
    out->lookupUs = medianSpanUs("serve.plan_lookup");
    out->sweepUs = medianSpanUs("core.sweep");
    out->sweepNsPerCandidate =
        out->sweepUs * 1e3 / static_cast<double>(catalog.size());
    out->encodeUs = medianSpanUs("serve.encode");
    out->replyBytes = median(replyBytes);
    return true;
}

bool
measureLoads(const std::string &model_path, const std::string &fleet_path,
             IoLoads *out)
{
    std::string error;
    for (int rep = 0; rep < kLoadReps; ++rep) {
        core::CeerModel model;
        cloud::InstanceCatalog catalog;
        {
            Scope span("io.model_load");
            if (!core::CeerModel::tryLoadFile(model_path, &model, &error))
                return false;
        }
        Scope span("io.catalog_load");
        if (!cloud::InstanceCatalog::tryLoadFile(fleet_path, &catalog,
                                                 &error) ||
            catalog.instances().size() != kFleetInstances)
            return false;
    }
    out->modelLoadMs = medianSpanUs("io.model_load") / 1e3;
    out->catalogLoadMs = medianSpanUs("io.catalog_load") / 1e3;
    return true;
}

void
addPipelineLayers(const std::vector<PipelineRun> &traced, int threads,
                  LayerReport *report)
{
    std::vector<double> walls, cpus;
    double collectCpuS = 0.0, pipelineCpuS = 0.0;
    for (const PipelineRun &run : traced) {
        walls.push_back(run.collectWallS * 1e3);
        cpus.push_back(run.collectCpuS * 1e3);
        collectCpuS += run.collectCpuS;
        pipelineCpuS += run.cpuS;
    }
    report->profileCpuShare = collectCpuS / pipelineCpuS;
    report->sweepWallMs = median(walls);
    report->sweepCpuMs = median(cpus);
    report->parallelEff =
        report->sweepCpuMs / (report->sweepWallMs * threads);
    report->trainMs =
        median(SpanRecorder::instance().selfTimesUs("core.trainCeer")) /
        1e3;

    // Share of pipeline wall time spent in profile and sim spans.
    const std::vector<Span> &spans = SpanRecorder::instance().spans();
    double pipelineUs = 0.0, profilingUs = 0.0;
    for (const Span &span : spans) {
        if (span.name == "pipeline")
            pipelineUs += span.durationUs();
        else if (span.parent >= 0 &&
                 spans[static_cast<std::size_t>(span.parent)].name ==
                     "pipeline" &&
                 (util::startsWith(span.name, "profile.") ||
                  util::startsWith(span.name, "sim.")))
            profilingUs += span.durationUs();
    }
    report->profileShare = profilingUs / pipelineUs;
}

void
addLayerMetrics(const LayerReport &report, RunResult *result)
{
    const StageReplay &stages = report.stages;
    result->add("host.spin_scaling_2", report.host.scaling2, "x");
    result->add("host.spin_scaling_n", report.host.scalingN, "x");
    result->add("trace.overhead", report.traceOverhead, "x");
    result->add("trace.profile_share", report.profileShare, "ratio");
    result->add("trace.profile_cpu_share", report.profileCpuShare, "ratio");
    result->add("sim.run_us_per_iter", report.sim.runUsPerIter, "us");
    result->add("sim.iters", report.sim.iters, "count");
    result->add("profile.observed_run_ms", report.sim.observedRunMs, "ms");
    result->add("profile.sweep_wall_ms", report.sweepWallMs, "ms");
    result->add("profile.sweep_cpu_ms", report.sweepCpuMs, "ms");
    result->add("profile.parallel_eff", report.parallelEff, "ratio");
    result->add("core.train_ms", report.trainMs, "ms");
    result->add("core.compile_us", stages.compileUs, "us");
    result->add("core.plan_warm_us", stages.planWarmUs, "us");
    result->add("core.memory_fits_us", stages.memoryFitsUs, "us");
    result->add("core.sweep_us", stages.sweepUs, "us");
    result->add("core.sweep_ns_per_candidate", stages.sweepNsPerCandidate,
                "ns");
    result->add("models.build_us", stages.buildUs, "us");
    result->add("serve.fingerprint_us", stages.fingerprintUs, "us");
    result->add("io.model_load_ms", report.io.modelLoadMs, "ms");
    result->add("io.catalog_load_ms", report.io.catalogLoadMs, "ms");
    result->add("serve.decode_us", stages.decodeUs, "us");
    result->add("serve.plan_lookup_us", stages.lookupUs, "us");
    result->add("serve.encode_us", stages.encodeUs, "us");
    result->add("serve.reply_bytes", stages.replyBytes, "bytes");
    result->add("serve.transport_us", report.transportUs, "us");
    result->add("serve.plan_cache.hit_ratio", report.hitRatio, "ratio");
    result->add("serve.plan_compiles_per_kreq", report.compilesPerKreq,
                "count");
    result->add("serve.allocs_per_req", report.allocsPerReq, "count");
}

void
finishTrace(const Options &options, RunResult *result)
{
    SpanRecorder &recorder = SpanRecorder::instance();
    auto layers = recorder.layerSelfTimesUs();
    std::sort(layers.begin(), layers.end(),
              [](const auto &a, const auto &b) { return a.second > b.second; });
    std::cout << "self time per layer (" << recorder.spans().size()
              << " spans):\n";
    for (const auto &[layer, us] : layers)
        std::cout << util::format("  %-10s %12.3f ms\n", layer.c_str(),
                                  us / 1e3);
    const std::string path =
        seedDir(options) + "/trace-" + options.workload + ".json";
    std::string error;
    if (!recorder.writeChromeTrace(path, &error))
        result->fail(error);
    else
        std::cout << "trace: " << path << "\n";
}

} // namespace perfbench

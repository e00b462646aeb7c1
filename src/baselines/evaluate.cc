#include "baselines/evaluate.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <span>
#include <utility>

#include "cloud/instances.h"
#include "core/predictor.h"
#include "core/recommender.h"
#include "io/schema.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "profile/profiler.h"
#include "sim/simulator.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace ceer {
namespace baselines {

namespace {

/** |pred - obs| / obs in percent; 0 when obs is not positive. */
double
absPctErr(double observed, double predicted)
{
    if (observed <= 0.0)
        return 0.0;
    return std::abs(predicted - observed) / observed * 100.0;
}

/**
 * One min-cost instance pick over the on-grid candidates. Costs use
 * the shared core arithmetic (iterations = ceil(D / (k * B))) on the
 * per-(GPU, k) iteration times in @p timeUs; ties break to the first
 * candidate in catalog order. Returns "" when nothing is feasible.
 */
struct GridCandidate
{
    const cloud::GpuInstance *instance;
    std::size_t cellIndex; ///< (gpu, k) slot in the model's sub-grid.
};

std::string
pickCheapest(const std::vector<GridCandidate> &candidates,
             const std::vector<double> &timeUs,
             const EvalOptions &options)
{
    const cloud::GpuInstance *best = nullptr;
    double bestCost = 0.0;
    for (const GridCandidate &candidate : candidates) {
        const double cost =
            core::makeTrainingPrediction(timeUs[candidate.cellIndex],
                                         candidate.instance->numGpus,
                                         options.datasetSamples,
                                         options.batch)
                .costUsd(candidate.instance->hourlyUsd);
        if (!best || cost < bestCost) {
            best = candidate.instance;
            bestCost = cost;
        }
    }
    return best ? best->name : std::string();
}

} // namespace

const io::FileSchema<EvalReport> &
EvalReport::schema()
{
    static const auto cells =
        io::Table<EvalReport, EvalCell>::of<&EvalReport::cells>(
            "cell", "cell.",
            {io::field<&EvalCell::predictor>("predictor", 1),
             io::field<&EvalCell::model>("model", 2),
             io::gpuColumn<&EvalCell::gpu>("gpu", 3),
             io::ranged<&EvalCell::k, 1, hw::kMaxGpus>("k", 4),
             io::field<&EvalCell::observedUs>("observed_us", 5, "%.17g"),
             io::field<&EvalCell::predictedUs>("predicted_us", 6, "%.17g"),
             io::field<&EvalCell::apePct>("ape_pct", 7, "%.17g")});
        using M = EvalModelRow;
        static const auto models =
            io::Table<EvalReport, M>::of<&EvalReport::modelRows>(
            "model", "model.",
            {io::field<&M::predictor>("predictor", 1),
             io::field<&M::model>("model", 2),
             io::field<&M::mapePct>("mape_pct", 8, "%.17g"),
             io::field<&M::rmseUs>("rmse_us", 9, "%.17g"),
             io::field<&M::spearman>("spearman", 10, "%.17g"),
             io::field<&M::recommended>("recommended", 11),
             io::field<&M::observedBest>("observed_best", 12),
             io::field<&M::agree>("agree", 13, "0|1")});
        using S = EvalSummaryRow;
        static const auto summary =
            io::Table<EvalReport, S>::of<&EvalReport::summary>(
            "summary", "summary.",
            {io::field<&S::predictor>("predictor", 1),
             io::field<&S::mapePct>("mape_pct", 8, "%.17g"),
             io::field<&S::rmseUs>("rmse_us", 9, "%.17g"),
             io::field<&S::meanSpearman>("mean_spearman", 10, "%.17g"),
             io::field<&S::agreementRate>("agreement_rate", 13, "%.17g")});
        static const io::FileSchema<EvalReport> schema(
            "ceer.evalreport.v1",
            {"kind", "predictor", "model", "gpu", "k", "observed_us",
             "predicted_us", "ape_pct", "mape_pct", "rmse_us", "spearman",
             "recommended", "observed_best", "agree"},
            {&cells, &models, &summary});
    return schema;
}

void
EvalReport::saveCsv(std::ostream &out) const
{
    schema().saveCsv(*this, out);
}

void
EvalReport::saveCbf(std::ostream &out) const
{
    schema().saveCbf(*this, out);
}

EvalReport
runEvaluation(const std::vector<std::unique_ptr<Predictor>> &predictors,
              const EvalOptions &options)
{
    OBS_SPAN("eval.run", "eval");
    if (predictors.empty())
        util::fatal("evaluate: no predictors to evaluate");
    if (options.models.empty())
        util::fatal("evaluate: no models to evaluate");
    if (options.gpus.empty() || options.ks.empty())
        util::fatal("evaluate: empty GPU or k grid");
    for (const int k : options.ks) {
        if (k < 1)
            util::fatal(util::format("evaluate: invalid width k=%d",
                                     k));
    }

    // Each model's graph is built once: every cell of the model
    // simulates on it, and every engine predicts it.
    const std::size_t n_models = options.models.size();
    const std::size_t n_gpus = options.gpus.size();
    const std::size_t n_ks = options.ks.size();
    const std::size_t n_grid = n_gpus * n_ks;
    std::vector<graph::Graph> graphs;
    graphs.reserve(n_models);
    for (const std::string &model : options.models)
        graphs.push_back(models::buildModel(model, options.batch));

    // The parallel sweep: one task per (model, GPU, k) grid cell, each
    // simulating its own observed run — seeded per cell via
    // profile::runSeed, so the value is independent of sweep order —
    // then one task per (predictor, model) filling that model's slice
    // of the predictor's row. Every task writes preallocated slots.
    const std::size_t n_cells = n_models * n_grid;
    std::vector<double> observed(n_cells, 0.0);
    std::vector<std::vector<double>> predicted(
        predictors.size(), std::vector<double>(n_cells, 0.0));
    const auto observeCell = [&](std::size_t index) {
        OBS_TIMER("eval.cell_us");
        const std::size_t m = index / n_grid;
        const hw::GpuModel gpu = options.gpus[(index / n_ks) % n_gpus];
        const int k = options.ks[index % n_ks];
        sim::SimConfig config;
        config.gpu = gpu;
        config.numGpus = k;
        config.gpusPerHost = options.gpusPerHost;
        config.seed = profile::runSeed(options.seed, options.models[m],
                                       gpu, k);
        sim::TrainingSimulator simulator(graphs[m], config);
        observed[index] =
            simulator.run(options.evalIterations).iterationUs.mean();
        OBS_COUNTER_INC("eval.cells");
    };
    util::ParallelOptions parallel;
    parallel.costHintUs = 2000.0;
    parallel.maxThreads = util::ThreadPool::effectiveThreads(options.threads);
    util::ThreadPool::shared().parallelForRange(
        n_cells, parallel, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                observeCell(i);
        });
    util::ThreadPool::shared().parallelForRange(
        predictors.size() * n_models, parallel,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const std::size_t p = i / n_models, m = i % n_models;
                predictors[p]->predictGrid(
                    graphs[m], options.gpus, options.ks,
                    std::span<double>(predicted[p])
                        .subspan(m * n_grid, n_grid));
            }
        });

    // The recommendation-agreement candidates: catalog instances whose
    // (GPU, width) lies on the evaluated grid, in catalog order.
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();
    std::vector<core::MemoryFitTable> fits;
    fits.reserve(n_models);
    for (const graph::Graph &g : graphs)
        fits.push_back(core::computeMemoryFits(g));

    // Serial canonical-order reduction: cells and aggregates come out
    // predictor-major, then model, GPU and k in options order —
    // independent of sweep scheduling, so the report is byte-identical
    // at any thread count.
    EvalReport report;
    report.cells.reserve(predictors.size() * n_cells);
    report.modelRows.reserve(predictors.size() * n_models);
    for (std::size_t p = 0; p < predictors.size(); ++p) {
        const std::string &name = predictors[p]->name();
        std::vector<double> all_observed, all_predicted;
        double ape_sum = 0.0;
        double spearman_sum = 0.0;
        std::size_t agree_count = 0;
        for (std::size_t m = 0; m < n_models; ++m) {
            std::vector<double> model_observed, model_predicted;
            std::vector<GridCandidate> candidates;
            double model_ape_sum = 0.0;
            for (std::size_t g = 0; g < n_gpus; ++g) {
                for (std::size_t ki = 0; ki < n_ks; ++ki) {
                    const std::size_t index =
                        (m * n_gpus + g) * n_ks + ki;
                    EvalCell cell;
                    cell.predictor = name;
                    cell.model = options.models[m];
                    cell.gpu = options.gpus[g];
                    cell.k = options.ks[ki];
                    cell.observedUs = observed[index];
                    cell.predictedUs = predicted[p][index];
                    cell.apePct =
                        absPctErr(cell.observedUs, cell.predictedUs);
                    model_ape_sum += cell.apePct;
                    model_observed.push_back(cell.observedUs);
                    model_predicted.push_back(cell.predictedUs);
                    report.cells.push_back(std::move(cell));
                }
            }
            // The model's on-grid candidate list, restricted to
            // instances whose GPU can hold a replica.
            for (const cloud::GpuInstance &instance :
                 catalog.instances()) {
                std::size_t g_index = n_gpus, k_index = n_ks;
                for (std::size_t g = 0; g < n_gpus; ++g) {
                    if (options.gpus[g] == instance.gpu)
                        g_index = g;
                }
                for (std::size_t ki = 0; ki < n_ks; ++ki) {
                    if (options.ks[ki] == instance.numGpus)
                        k_index = ki;
                }
                if (g_index == n_gpus || k_index == n_ks)
                    continue;
                if (!fits[m][static_cast<std::size_t>(instance.gpu)])
                    continue;
                candidates.push_back(
                    {&instance, g_index * n_ks + k_index});
            }

            EvalModelRow row;
            row.predictor = name;
            row.model = options.models[m];
            row.mapePct =
                model_observed.empty()
                    ? 0.0
                    : model_ape_sum /
                          static_cast<double>(model_observed.size());
            row.rmseUs = util::rootMeanSquaredError(model_observed,
                                                    model_predicted);
            row.spearman = util::spearmanRankCorrelation(
                model_observed, model_predicted);
            row.recommended =
                pickCheapest(candidates, model_predicted, options);
            row.observedBest =
                pickCheapest(candidates, model_observed, options);
            row.agree = !row.recommended.empty() &&
                        row.recommended == row.observedBest;
            ape_sum += model_ape_sum;
            spearman_sum += row.spearman;
            if (row.agree)
                ++agree_count;
            all_observed.insert(all_observed.end(),
                                model_observed.begin(),
                                model_observed.end());
            all_predicted.insert(all_predicted.end(),
                                 model_predicted.begin(),
                                 model_predicted.end());
            report.modelRows.push_back(std::move(row));
        }
        EvalSummaryRow sum;
        sum.predictor = name;
        sum.mapePct = all_observed.empty()
                          ? 0.0
                          : ape_sum / static_cast<double>(
                                          all_observed.size());
        sum.rmseUs =
            util::rootMeanSquaredError(all_observed, all_predicted);
        sum.meanSpearman =
            spearman_sum / static_cast<double>(n_models);
        sum.agreementRate = static_cast<double>(agree_count) /
                            static_cast<double>(n_models);
        report.summary.push_back(std::move(sum));
    }
    OBS_COUNTER_ADD("eval.predictions",
                    predictors.size() * n_cells);
    return report;
}

} // namespace baselines
} // namespace ceer

#include "baselines/evaluate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <utility>

#include "cloud/instances.h"
#include "core/predictor.h"
#include "core/recommender.h"
#include "io/cbf.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "sim/simulator.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace ceer {
namespace baselines {

namespace {

/** %.17g: the shortest text that round-trips the exact bits. */
std::string
f17(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

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

const char *const kCsvHeader[] = {
    "kind",      "predictor",   "model",    "gpu",
    "k",         "observed_us", "predicted_us", "ape_pct",
    "mape_pct",  "rmse_us",     "spearman", "recommended",
    "observed_best", "agree",
};
constexpr std::size_t kCsvColumns =
    sizeof(kCsvHeader) / sizeof(kCsvHeader[0]);

/** Parse helper carrying "row N, column C" context into @p error. */
bool
parseF64(const std::string &text, std::size_t row, const char *column,
         double *out, std::string *error)
{
    const util::ParseResult<double> parsed = util::parseDouble(text);
    if (!parsed) {
        *error = util::format("row %zu, column %s: %s", row, column,
                              parsed.error);
        return false;
    }
    *out = parsed.value;
    return true;
}

bool
parseI64(const std::string &text, std::size_t row, const char *column,
         std::int64_t *out, std::string *error)
{
    const util::ParseResult<std::int64_t> parsed =
        util::parseInt64(text);
    if (!parsed) {
        *error = util::format("row %zu, column %s: %s", row, column,
                              parsed.error);
        return false;
    }
    *out = parsed.value;
    return true;
}

} // namespace

void
EvalReport::saveCsv(std::ostream &out) const
{
    util::CsvWriter writer(out);
    std::vector<std::string> row(kCsvHeader, kCsvHeader + kCsvColumns);
    writer.writeRow(row);
    for (const EvalCell &cell : cells) {
        row.assign(kCsvColumns, std::string());
        row[0] = "cell";
        row[1] = cell.predictor;
        row[2] = cell.model;
        row[3] = hw::gpuModelName(cell.gpu);
        row[4] = std::to_string(cell.k);
        row[5] = f17(cell.observedUs);
        row[6] = f17(cell.predictedUs);
        row[7] = f17(cell.apePct);
        writer.writeRow(row);
    }
    for (const EvalModelRow &model : modelRows) {
        row.assign(kCsvColumns, std::string());
        row[0] = "model";
        row[1] = model.predictor;
        row[2] = model.model;
        row[8] = f17(model.mapePct);
        row[9] = f17(model.rmseUs);
        row[10] = f17(model.spearman);
        row[11] = model.recommended;
        row[12] = model.observedBest;
        row[13] = model.agree ? "1" : "0";
        writer.writeRow(row);
    }
    for (const EvalSummaryRow &sum : summary) {
        row.assign(kCsvColumns, std::string());
        row[0] = "summary";
        row[1] = sum.predictor;
        row[8] = f17(sum.mapePct);
        row[9] = f17(sum.rmseUs);
        row[10] = f17(sum.meanSpearman);
        row[13] = f17(sum.agreementRate);
        writer.writeRow(row);
    }
}

bool
EvalReport::tryLoadCsv(std::istream &in, EvalReport *report,
                       std::string *error)
{
    std::vector<std::vector<std::string>> rows;
    if (!util::tryReadCsv(in, &rows, error))
        return false;
    if (rows.empty()) {
        *error = "empty evaluation report";
        return false;
    }
    for (std::size_t c = 0; c < kCsvColumns; ++c) {
        if (rows[0].size() != kCsvColumns ||
            rows[0][c] != kCsvHeader[c]) {
            *error = "not an evaluation report CSV (bad header)";
            return false;
        }
    }
    EvalReport parsed;
    for (std::size_t r = 1; r < rows.size(); ++r) {
        const std::vector<std::string> &row = rows[r];
        if (row.size() != kCsvColumns) {
            *error = util::format("row %zu: expected %zu fields, got "
                                  "%zu",
                                  r, kCsvColumns, row.size());
            return false;
        }
        const std::string &kind = row[0];
        if (kind == "cell") {
            EvalCell cell;
            cell.predictor = row[1];
            cell.model = row[2];
            if (!hw::gpuModelFromName(row[3], cell.gpu)) {
                *error = util::format("row %zu: unknown GPU '%s'", r,
                                      row[3].c_str());
                return false;
            }
            std::int64_t k = 0;
            if (!parseI64(row[4], r, "k", &k, error) ||
                !parseF64(row[5], r, "observed_us", &cell.observedUs,
                          error) ||
                !parseF64(row[6], r, "predicted_us", &cell.predictedUs,
                          error) ||
                !parseF64(row[7], r, "ape_pct", &cell.apePct, error))
                return false;
            cell.k = static_cast<int>(k);
            parsed.cells.push_back(std::move(cell));
        } else if (kind == "model") {
            EvalModelRow model;
            model.predictor = row[1];
            model.model = row[2];
            std::int64_t agree = 0;
            if (!parseF64(row[8], r, "mape_pct", &model.mapePct,
                          error) ||
                !parseF64(row[9], r, "rmse_us", &model.rmseUs, error) ||
                !parseF64(row[10], r, "spearman", &model.spearman,
                          error) ||
                !parseI64(row[13], r, "agree", &agree, error))
                return false;
            model.recommended = row[11];
            model.observedBest = row[12];
            model.agree = agree != 0;
            parsed.modelRows.push_back(std::move(model));
        } else if (kind == "summary") {
            EvalSummaryRow sum;
            sum.predictor = row[1];
            if (!parseF64(row[8], r, "mape_pct", &sum.mapePct, error) ||
                !parseF64(row[9], r, "rmse_us", &sum.rmseUs, error) ||
                !parseF64(row[10], r, "spearman", &sum.meanSpearman,
                          error) ||
                !parseF64(row[13], r, "agree", &sum.agreementRate,
                          error))
                return false;
            parsed.summary.push_back(std::move(sum));
        } else {
            *error = util::format("row %zu: unknown kind '%s'", r,
                                  kind.c_str());
            return false;
        }
    }
    *report = std::move(parsed);
    return true;
}

void
EvalReport::saveCbf(std::ostream &out) const
{
    io::CbfBuilder builder;
    builder.addBytes("schema", "ceer.evalreport.v1");

    std::vector<std::string> predictor, model, gpu, recommended,
        observed_best;
    std::vector<std::int64_t> k;
    std::vector<double> observed_us, predicted_us, ape_pct;
    for (const EvalCell &cell : cells) {
        predictor.push_back(cell.predictor);
        model.push_back(cell.model);
        gpu.push_back(hw::gpuModelName(cell.gpu));
        k.push_back(cell.k);
        observed_us.push_back(cell.observedUs);
        predicted_us.push_back(cell.predictedUs);
        ape_pct.push_back(cell.apePct);
    }
    io::addStringColumn(&builder, "cell.predictor", predictor);
    io::addStringColumn(&builder, "cell.model", model);
    io::addStringColumn(&builder, "cell.gpu", gpu);
    builder.addI64("cell.k", k);
    builder.addF64("cell.observed_us", observed_us);
    builder.addF64("cell.predicted_us", predicted_us);
    builder.addF64("cell.ape_pct", ape_pct);

    predictor.clear();
    model.clear();
    std::vector<double> mape_pct, rmse_us, spearman;
    std::vector<std::uint8_t> agree;
    for (const EvalModelRow &row : modelRows) {
        predictor.push_back(row.predictor);
        model.push_back(row.model);
        mape_pct.push_back(row.mapePct);
        rmse_us.push_back(row.rmseUs);
        spearman.push_back(row.spearman);
        recommended.push_back(row.recommended);
        observed_best.push_back(row.observedBest);
        agree.push_back(row.agree ? 1 : 0);
    }
    io::addStringColumn(&builder, "model.predictor", predictor);
    io::addStringColumn(&builder, "model.model", model);
    builder.addF64("model.mape_pct", mape_pct);
    builder.addF64("model.rmse_us", rmse_us);
    builder.addF64("model.spearman", spearman);
    io::addStringColumn(&builder, "model.recommended", recommended);
    io::addStringColumn(&builder, "model.observed_best", observed_best);
    builder.addU8("model.agree", agree);

    predictor.clear();
    mape_pct.clear();
    rmse_us.clear();
    std::vector<double> mean_spearman, agreement_rate;
    for (const EvalSummaryRow &row : summary) {
        predictor.push_back(row.predictor);
        mape_pct.push_back(row.mapePct);
        rmse_us.push_back(row.rmseUs);
        mean_spearman.push_back(row.meanSpearman);
        agreement_rate.push_back(row.agreementRate);
    }
    io::addStringColumn(&builder, "summary.predictor", predictor);
    builder.addF64("summary.mape_pct", mape_pct);
    builder.addF64("summary.rmse_us", rmse_us);
    builder.addF64("summary.mean_spearman", mean_spearman);
    builder.addF64("summary.agreement_rate", agreement_rate);

    builder.write(out);
}

bool
EvalReport::tryLoadCbf(const io::CbfFile &file, EvalReport *report,
                       std::string *error)
{
    const char *schema = nullptr;
    std::size_t schema_size = 0;
    if (!file.bytes("schema", &schema, &schema_size, error))
        return false;
    const std::string schema_text(schema, schema_size);
    if (schema_text != "ceer.evalreport.v1") {
        *error = "not an evaluation report CBF (schema '" +
                 schema_text + "')";
        return false;
    }

    // Each group's columns must agree on their row count.
    const auto sized = [&](const char *name, io::DType dtype,
                           std::size_t rows, const void **data) {
        const io::ColumnDesc *desc = file.find(name);
        if (!desc) {
            *error = std::string("missing column ") + name;
            return false;
        }
        if (desc->count != rows) {
            *error = util::format("column %s: expected %zu rows, got "
                                  "%zu",
                                  name, rows,
                                  static_cast<std::size_t>(desc->count));
            return false;
        }
        std::size_t count = 0;
        switch (dtype) {
          case io::DType::F64:
            return file.f64(name, reinterpret_cast<const double **>(
                                      data),
                            &count, error);
          case io::DType::I64:
            return file.i64(name,
                            reinterpret_cast<const std::int64_t **>(
                                data),
                            &count, error);
          case io::DType::U8:
            return file.u8(name,
                           reinterpret_cast<const std::uint8_t **>(
                               data),
                           &count, error);
          default:
            *error = std::string("column ") + name +
                     ": unsupported dtype";
            return false;
        }
    };

    EvalReport parsed;

    std::vector<std::string> predictor, model, gpu;
    if (!io::readStringColumn(file, "cell.predictor", &predictor,
                              error) ||
        !io::readStringColumn(file, "cell.model", &model, error) ||
        !io::readStringColumn(file, "cell.gpu", &gpu, error))
        return false;
    const std::size_t n_cells = predictor.size();
    if (model.size() != n_cells || gpu.size() != n_cells) {
        *error = "cell.* columns disagree on row count";
        return false;
    }
    const std::int64_t *k = nullptr;
    const double *observed_us = nullptr, *predicted_us = nullptr,
                 *ape_pct = nullptr;
    if (!sized("cell.k", io::DType::I64, n_cells,
               reinterpret_cast<const void **>(&k)) ||
        !sized("cell.observed_us", io::DType::F64, n_cells,
               reinterpret_cast<const void **>(&observed_us)) ||
        !sized("cell.predicted_us", io::DType::F64, n_cells,
               reinterpret_cast<const void **>(&predicted_us)) ||
        !sized("cell.ape_pct", io::DType::F64, n_cells,
               reinterpret_cast<const void **>(&ape_pct)))
        return false;
    parsed.cells.resize(n_cells);
    for (std::size_t i = 0; i < n_cells; ++i) {
        EvalCell &cell = parsed.cells[i];
        cell.predictor = std::move(predictor[i]);
        cell.model = std::move(model[i]);
        if (!hw::gpuModelFromName(gpu[i], cell.gpu)) {
            *error = util::format("cell.gpu row %zu: unknown GPU '%s'",
                                  i, gpu[i].c_str());
            return false;
        }
        cell.k = static_cast<int>(k[i]);
        cell.observedUs = observed_us[i];
        cell.predictedUs = predicted_us[i];
        cell.apePct = ape_pct[i];
    }

    std::vector<std::string> recommended, observed_best;
    predictor.clear();
    model.clear();
    if (!io::readStringColumn(file, "model.predictor", &predictor,
                              error) ||
        !io::readStringColumn(file, "model.model", &model, error) ||
        !io::readStringColumn(file, "model.recommended", &recommended,
                              error) ||
        !io::readStringColumn(file, "model.observed_best",
                              &observed_best, error))
        return false;
    const std::size_t n_models = predictor.size();
    if (model.size() != n_models || recommended.size() != n_models ||
        observed_best.size() != n_models) {
        *error = "model.* columns disagree on row count";
        return false;
    }
    const double *mape_pct = nullptr, *rmse_us = nullptr,
                 *spearman = nullptr;
    const std::uint8_t *agree = nullptr;
    if (!sized("model.mape_pct", io::DType::F64, n_models,
               reinterpret_cast<const void **>(&mape_pct)) ||
        !sized("model.rmse_us", io::DType::F64, n_models,
               reinterpret_cast<const void **>(&rmse_us)) ||
        !sized("model.spearman", io::DType::F64, n_models,
               reinterpret_cast<const void **>(&spearman)) ||
        !sized("model.agree", io::DType::U8, n_models,
               reinterpret_cast<const void **>(&agree)))
        return false;
    parsed.modelRows.resize(n_models);
    for (std::size_t i = 0; i < n_models; ++i) {
        EvalModelRow &row = parsed.modelRows[i];
        row.predictor = std::move(predictor[i]);
        row.model = std::move(model[i]);
        row.mapePct = mape_pct[i];
        row.rmseUs = rmse_us[i];
        row.spearman = spearman[i];
        row.recommended = std::move(recommended[i]);
        row.observedBest = std::move(observed_best[i]);
        row.agree = agree[i] != 0;
    }

    predictor.clear();
    if (!io::readStringColumn(file, "summary.predictor", &predictor,
                              error))
        return false;
    const std::size_t n_summary = predictor.size();
    const double *s_mape = nullptr, *s_rmse = nullptr,
                 *s_spearman = nullptr, *s_agreement = nullptr;
    if (!sized("summary.mape_pct", io::DType::F64, n_summary,
               reinterpret_cast<const void **>(&s_mape)) ||
        !sized("summary.rmse_us", io::DType::F64, n_summary,
               reinterpret_cast<const void **>(&s_rmse)) ||
        !sized("summary.mean_spearman", io::DType::F64, n_summary,
               reinterpret_cast<const void **>(&s_spearman)) ||
        !sized("summary.agreement_rate", io::DType::F64, n_summary,
               reinterpret_cast<const void **>(&s_agreement)))
        return false;
    parsed.summary.resize(n_summary);
    for (std::size_t i = 0; i < n_summary; ++i) {
        EvalSummaryRow &row = parsed.summary[i];
        row.predictor = std::move(predictor[i]);
        row.mapePct = s_mape[i];
        row.rmseUs = s_rmse[i];
        row.meanSpearman = s_spearman[i];
        row.agreementRate = s_agreement[i];
    }

    *report = std::move(parsed);
    return true;
}

bool
EvalReport::tryLoadFile(const std::string &path, EvalReport *report,
                        std::string *error)
{
    return io::tryLoadSniffed(
        path,
        [report](const io::CbfFile &file, std::string *err) {
            return tryLoadCbf(file, report, err);
        },
        [report](std::istream &in, std::string *err) {
            return tryLoadCsv(in, report, err);
        },
        error);
}

EvalReport
runEvaluation(const profile::ProfileDataset &dataset,
              const std::vector<Predictor *> &predictors,
              const EvalOptions &options)
{
    OBS_SPAN("eval.run", "eval");
    if (dataset.ops().empty() && dataset.iterations().empty())
        util::fatal(
            "evaluate: empty profile dataset (no op or run rows)");
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

    // Train every engine up front; a dataset missing what an engine
    // needs fatals here, before any sweep work.
    for (Predictor *predictor : predictors) {
        OBS_TIMER("eval.train_us");
        predictor->trainFrom(dataset);
    }

    // Graphs are built once, serially, before any prediction: the
    // plan-memoizing engines key on graph addresses, so the vector is
    // fully sized first and never reallocates.
    const std::size_t n_models = options.models.size();
    const std::size_t n_gpus = options.gpus.size();
    const std::size_t n_ks = options.ks.size();
    std::vector<graph::Graph> graphs;
    graphs.reserve(n_models);
    for (const std::string &model : options.models)
        graphs.push_back(models::buildModel(model, options.batch));

    // The parallel sweep: one task per (model, GPU, k) grid cell.
    // Each task simulates its own observed run — seeded per cell via
    // profile::runSeed, so the value is independent of sweep order —
    // and evaluates every engine, writing into preallocated slots.
    const std::size_t n_cells = n_models * n_gpus * n_ks;
    std::vector<double> observed(n_cells, 0.0);
    std::vector<std::vector<double>> predicted(
        predictors.size(), std::vector<double>(n_cells, 0.0));
    const auto evaluateCell = [&](std::size_t index) {
        OBS_TIMER("eval.cell_us");
        const std::size_t m = index / (n_gpus * n_ks);
        const std::size_t g = (index / n_ks) % n_gpus;
        const std::size_t ki = index % n_ks;
        const hw::GpuModel gpu = options.gpus[g];
        const int k = options.ks[ki];
        sim::SimConfig config;
        config.gpu = gpu;
        config.numGpus = k;
        config.gpusPerHost = options.gpusPerHost;
        config.seed = profile::runSeed(options.seed, options.models[m],
                                       gpu, k);
        sim::TrainingSimulator simulator(graphs[m], config);
        observed[index] =
            simulator.run(options.evalIterations).iterationUs.mean();
        for (std::size_t p = 0; p < predictors.size(); ++p) {
            predicted[p][index] =
                predictors[p]->predictIterationUs(graphs[m], gpu, k);
        }
        OBS_COUNTER_INC("eval.cells");
    };
    util::ParallelOptions parallel;
    parallel.costHintUs = 2000.0;
    parallel.maxThreads = util::ThreadPool::effectiveThreads(options.threads);
    util::ThreadPool::shared().parallelForRange(
        n_cells, parallel, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                evaluateCell(i);
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

EvalReport
runEvaluation(const profile::ProfileDataset &dataset,
              const std::vector<std::unique_ptr<Predictor>> &predictors,
              const EvalOptions &options)
{
    std::vector<Predictor *> raw;
    raw.reserve(predictors.size());
    for (const std::unique_ptr<Predictor> &predictor : predictors)
        raw.push_back(predictor.get());
    return runEvaluation(dataset, raw, options);
}

} // namespace baselines
} // namespace ceer

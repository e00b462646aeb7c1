/**
 * @file
 * Cross-predictor evaluation harness: every registered Predictor swept
 * over a model x GPU x k grid against simulated ground truth, reduced
 * to the paper's Table-5-style accuracy report.
 *
 * Observed grid cells and (predictor, model) prediction slices are
 * independent tasks fanned out on ThreadPool::shared() with
 * slot-indexed writes and a serial canonical-order reduction, so the
 * report is byte-identical at any thread count. Serialization is
 * deterministic (fixed key order, %.17g numerics) with a CSV
 * interchange dialect and a bit-exact CBF binary dialect
 * (schema ceer.evalreport.v1); see docs/evaluation.md.
 */

#ifndef CEER_BASELINES_EVALUATE_H
#define CEER_BASELINES_EVALUATE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "baselines/predictor.h"
#include "hw/gpu_spec.h"

namespace ceer {

namespace io {
template <class T>
class FileSchema;
}

namespace baselines {

/** Grid and ground-truth knobs of one evaluation run. */
struct EvalOptions
{
    /** CNNs to evaluate (zoo names); must be non-empty. */
    std::vector<std::string> models;

    /** GPU models of the grid (default: all four, paper order). */
    std::vector<hw::GpuModel> gpus = hw::allGpuModels();

    /** Data-parallel widths of the grid. */
    std::vector<int> ks = {1, 2, 4, 8};

    /** Per-GPU batch size the graphs are built at. */
    std::int64_t batch = 32;

    /** Dataset size D for the recommendation-agreement metric. */
    std::int64_t datasetSamples = 1'200'000;

    /** Simulated iterations behind each observed cell value. */
    int evalIterations = 60;

    /** Base RNG seed of the observed runs (salted per cell). */
    std::uint64_t seed = 42;

    /** Host topology of the observed runs. */
    int gpusPerHost = 8;

    /**
     * Sweep parallelism: 1 = serial (default), 0 = one per hardware
     * thread, n > 1 = exactly n. The report is byte-identical at any
     * value.
     */
    int threads = 1;
};

/** One (predictor, model, GPU, k) grid cell. */
struct EvalCell
{
    std::string predictor;                 ///< Engine name.
    std::string model;                     ///< CNN name.
    hw::GpuModel gpu = hw::GpuModel::V100; ///< GPU model.
    int k = 1;                             ///< Data-parallel width.
    double observedUs = 0.0;  ///< Simulated mean iteration time.
    double predictedUs = 0.0; ///< Engine's prediction.
    double apePct = 0.0;      ///< |pred - obs| / obs * 100.
};

/** Per-(predictor, model) aggregate over the GPU x k sub-grid. */
struct EvalModelRow
{
    std::string predictor;    ///< Engine name.
    std::string model;        ///< CNN name.
    double mapePct = 0.0;     ///< Mean APE over the sub-grid (%).
    double rmseUs = 0.0;      ///< RMSE over the sub-grid (us).
    double spearman = 0.0;    ///< Rank corr. of predicted vs observed.
    std::string recommended;  ///< Engine's min-cost instance pick.
    std::string observedBest; ///< Min-cost pick under observed times.
    bool agree = false;       ///< recommended == observedBest.
};

/** Per-predictor aggregate over every cell. */
struct EvalSummaryRow
{
    std::string predictor;      ///< Engine name.
    double mapePct = 0.0;       ///< Pooled MAPE over all cells (%).
    double rmseUs = 0.0;        ///< Pooled RMSE over all cells (us).
    double meanSpearman = 0.0;  ///< Mean per-model rank correlation.
    double agreementRate = 0.0; ///< Fraction of models that agree.
};

/** The full report; rows in canonical (predictor, model, gpu, k) order. */
struct EvalReport
{
    std::vector<EvalCell> cells;
    std::vector<EvalModelRow> modelRows;
    std::vector<EvalSummaryRow> summary;

    /**
     * The report's cell/model/summary tables (CSV rows tagged by the
     * leading "kind" column, doubles at %.17g; CBF bit-exact). They
     * drive both writers and are the report's only loader:
     * schema().tryLoadCsv / tryLoadCbf / tryLoadFile.
     */
    static const io::FileSchema<EvalReport> &schema();

    void saveCsv(std::ostream &out) const;
    void saveCbf(std::ostream &out) const;
};

/**
 * Sweeps every trained predictor over the full grid and reduces the
 * report.
 *
 * Observed cell values come from the simulated substrate: a dedicated
 * deterministic run per (model, GPU, k) cell, seeded independently of
 * sweep order and thread count. Each predictor fills a model's whole
 * GPU x k sub-grid in one predictGrid call. Fatal on an empty
 * predictor list or an empty/invalid grid.
 *
 * The instance-recommendation agreement restricts the candidate
 * catalog (cloud::InstanceCatalog::awsOnDemand) to instances whose
 * (GPU, width) lies on the evaluated grid, so every engine is judged
 * from exactly the cells the report shows.
 *
 * @param predictors Trained engines to evaluate (see makePredictors).
 * @param options    Grid and ground-truth knobs.
 */
EvalReport
runEvaluation(const std::vector<std::unique_ptr<Predictor>> &predictors,
              const EvalOptions &options);

} // namespace baselines
} // namespace ceer

#endif // CEER_BASELINES_EVALUATE_H

/**
 * @file
 * The trained Ceer model: everything Sec. IV of the paper learns from
 * the operation-level profiles of the 8 training CNNs.
 *
 *  - per-(GPU, heavy op) input-size regressions (linear or quadratic);
 *  - GPU-, CNN- and op-oblivious median estimates for light GPU ops
 *    and for CPU ops;
 *  - per-(GPU, k) communication-overhead regressions on the CNN's
 *    parameter count.
 */

#ifndef CEER_CORE_CEER_MODEL_H
#define CEER_CORE_CEER_MODEL_H

#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/regression.h"
#include "graph/op_type.h"
#include "hw/gpu_spec.h"

namespace ceer {

namespace io {
class CbfFile;
}

namespace core {

/** How Ceer treats an op type (a measured property, Sec. III). */
enum class OpClass { Heavy, Light, Cpu };

/** Compute-time model of one heavy op type on one GPU model. */
struct OpTimeModel
{
    graph::OpType op = graph::OpType::Identity; ///< Operation type.
    hw::GpuModel gpu = hw::GpuModel::V100;      ///< GPU model.
    bool quadratic = false; ///< Quadratic feature expansion in use.
    LinearModel model;      ///< Fitted regression.
    double r2 = 0.0;        ///< Training-set R^2.
    double medianUs = 0.0;  ///< Fallback when regression is unusable.
    bool usable = false;    ///< Enough distinct points to regress.
    std::size_t points = 0; ///< Instances used for the fit.

    /**
     * Predicted compute time for raw (unexpanded) features, clamped to
     * a small positive floor.
     */
    double predictUs(const std::vector<double> &features) const;
};

/** Communication-overhead model S_GPU(k, params), Sec. IV-C. */
struct CommModel
{
    /** One per-(GPU, k) linear fit on the parameter count. */
    struct Fit
    {
        LinearModel model; ///< overhead_us ~= a + b * params.
        double r2 = 0.0;   ///< Training-set R^2.
        bool valid = false;
    };

    /// Index 0 holds the k=1 host<->GPU overhead fit; index k-1 the
    /// *additional* data-parallel overhead D_k for k >= 2
    /// (S_k = S_1 + D_k).
    std::map<hw::GpuModel, std::vector<Fit>> fits;

    /**
     * Total per-iteration overhead estimate in microseconds.
     * Extrapolates linearly in k beyond the largest trained width.
     *
     * @param gpu         GPU model.
     * @param num_gpus    Data-parallel width (>= 1).
     * @param param_count Trainable parameters of the target CNN.
     */
    double overheadUs(hw::GpuModel gpu, int num_gpus,
                      double param_count) const;
};

/** Everything trainCeer() produces. */
struct CeerModel
{
    /** Per-(GPU, op) regressions for heavy ops. */
    std::map<std::pair<hw::GpuModel, graph::OpType>, OpTimeModel>
        opModels;

    /** Op types classified heavy (mean time on P2 above threshold). */
    std::set<graph::OpType> heavyOps;

    /** Sample median of light GPU op times, pooled (Sec. IV-B). */
    double lightMedianUs = 0.0;

    /** Sample median of CPU op times, pooled. */
    double cpuMedianUs = 0.0;

    /** Communication model. */
    CommModel comm;

    /** Classification threshold used (mean us on the threshold GPU). */
    double heavyThresholdUs = 500.0;

    /** Classifies an op type. Unseen GPU ops default to Light. */
    OpClass classify(graph::OpType op) const;

    /** Model for (gpu, op) or nullptr when absent. */
    const OpTimeModel *opModel(hw::GpuModel gpu, graph::OpType op) const;

    /** Range [min, max] of op-model R^2 values (paper: 0.84-0.98). */
    std::pair<double, double> opModelR2Range() const;

    /**
     * Writes the line-oriented text dialect. Both dialects run through
     * one schema (scalars, heavy_ops, op_model, comm_fit tables; see
     * docs/file_formats.md) and store doubles and regression fits at
     * %.17g or raw bits, so a reloaded model predicts bit-identically.
     * Every loader leaves @p model untouched on failure and names the
     * line or row, column and value.
     */
    void save(std::ostream &out) const;
    /** tryLoad(), fatal on failure. */
    static CeerModel load(std::istream &in);
    static bool tryLoad(std::istream &in, CeerModel *model,
                        std::string *error);
    void saveCbf(std::ostream &out) const;
    static bool tryLoadCbf(const io::CbfFile &file, CeerModel *model,
                           std::string *error);
    /** Either dialect, sniffed by magic bytes (io::tryLoadSniffed). */
    static bool tryLoadFile(const std::string &path, CeerModel *model,
                            std::string *error);

    /** tryLoadFile(), fatal on failure. */
    static CeerModel loadFile(const std::string &path);
};

} // namespace core
} // namespace ceer

#endif // CEER_CORE_CEER_MODEL_H

#include "baselines/predictor.h"

#include <algorithm>
#include <map>

#include "baselines/baselines.h"
#include "core/predictor.h"
#include "core/regression.h"
#include "core/trainer.h"
#include "graph/net_features.h"
#include "hw/op_cost.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "profile/features.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/strings.h"

namespace ceer {
namespace baselines {

namespace {

using graph::Graph;
using graph::OpType;
using hw::GpuModel;

/** Kernels cannot beat launch overhead (same floor as OpTimeModel). */
constexpr double kMinOpUs = 1.0;

/** Fatal helper that prefixes the engine name. */
[[noreturn]] void
engineFatal(const std::string &engine, const std::string &message)
{
    util::fatal(engine + ": " + message);
}

/** Which sum of the Eq. 2 terms a Ceer-backed engine reports. */
using TermsTotal = double (*)(const core::IterationTerms &);

double
fullUs(const core::IterationTerms &terms)
{
    return terms.totalUs();
}

/**
 * The three Ceer-backed engines: the full model and its two paper
 * ablations, differing only in which sum of the Eq. 2 terms they
 * report. They share one trained CeerPredictor; each predictGrid
 * compiles the graph once into a local plan and evaluates every
 * (GPU, k) cell from it.
 */
class CeerVariantPredictor final : public Predictor
{
  public:
    CeerVariantPredictor(std::string name,
                         std::shared_ptr<const core::CeerPredictor> ceer,
                         TermsTotal total)
        : name_(std::move(name)), ceer_(std::move(ceer)), total_(total)
    {
    }

    const std::string &name() const override { return name_; }

  private:
    void
    fillGrid(const Graph &g, std::span<const GpuModel> gpus,
             std::span<const int> ks,
             std::span<double> out) const override
    {
        const core::PredictPlan plan = ceer_->compile(g);
        for (std::size_t gi = 0; gi < gpus.size(); ++gi) {
            for (std::size_t ki = 0; ki < ks.size(); ++ki)
                out[gi * ks.size() + ki] =
                    total_(ceer_->terms(plan, gpus[gi], ks[ki]));
        }
    }

    std::string name_;
    std::shared_ptr<const core::CeerPredictor> ceer_;
    TermsTotal total_;
};

/** PALEO-style wrapper: analytic, nothing to fit, constant in k. */
class PaleoFlopsPredictor final : public Predictor
{
  public:
    explicit PaleoFlopsPredictor(const profile::ProfileDataset &dataset)
        : name_("paleo_flops")
    {
        // Nothing to fit, but an empty dataset is still an error, not
        // a silent no-op.
        if (dataset.ops().empty() && dataset.iterations().empty())
            engineFatal(name_, "profile dataset is empty");
    }

    const std::string &name() const override { return name_; }

  private:
    void
    fillGrid(const Graph &g, std::span<const GpuModel> gpus,
             std::span<const int> ks,
             std::span<double> out) const override
    {
        for (std::size_t gi = 0; gi < gpus.size(); ++gi)
            std::fill_n(out.begin() + gi * ks.size(), ks.size(),
                        flops_.predictIterationUs(g, gpus[gi]));
    }

    std::string name_;
    FlopsPredictor flops_;
};

/**
 * PROFET-style transfer predictor (arXiv 2208.05130).
 *
 * PROFET profiles a workload on ONE reference instance and predicts
 * the others by transferring the reference model across hardware.
 * Here: per-op-type input-size regressions (median fallback below
 * profile::kNumOpFeatures-friendly instance counts) are fitted from
 * the reference GPU's op rows only; every other GPU is predicted by
 * scaling the reference estimate with a per-(GPU, op type) factor —
 * the ratio of dataset mean times when the target GPU was profiled,
 * or the ratio of calibrated category throughputs when it was not.
 * Like PROFET, the engine carries no communication model: predictions
 * are constant in k, which the evaluation report surfaces as its
 * characteristic multi-GPU error.
 */
class ProfetPredictor final : public Predictor
{
  public:
    explicit ProfetPredictor(const profile::ProfileDataset &dataset,
                             GpuModel reference = GpuModel::V100)
        : name_("profet"), reference_(reference)
    {
        const auto ref_rows = dataset.opsFor(reference_);
        bool has_ref_gpu_rows = false;
        for (const profile::OpProfile *row : ref_rows)
            has_ref_gpu_rows |= !row->onCpu;
        if (!has_ref_gpu_rows)
            engineFatal(name_,
                        "no op profiles for reference GPU " +
                            hw::gpuModelName(reference_) +
                            " in dataset");

        // Per-op-type estimator on the reference GPU.
        std::vector<double> ref_means;
        for (OpType op : dataset.opTypes(reference_)) {
            std::vector<std::vector<double>> features;
            std::vector<double> means;
            for (const profile::OpProfile *row :
                 dataset.opsFor(reference_, op)) {
                if (row->onCpu)
                    continue;
                features.push_back(row->features);
                means.push_back(row->timeUs.mean());
            }
            if (means.empty())
                continue;
            OpEstimator estimator;
            estimator.medianUs = util::median(means);
            if (means.size() >= kMinFitInstances) {
                estimator.model =
                    core::LinearModel::fit(features, means);
                estimator.fitted = true;
            }
            opModels_.emplace(op, std::move(estimator));
            ref_means.insert(ref_means.end(), means.begin(),
                             means.end());
        }
        refFallbackUs_ =
            std::max(util::median(ref_means), kMinOpUs);

        // CPU ops run on the host: no cross-instance scaling.
        std::vector<double> cpu_means;
        for (const profile::OpProfile &row : dataset.ops())
            if (row.onCpu)
                cpu_means.push_back(row.timeUs.mean());
        if (!cpu_means.empty())
            cpuMedianUs_ =
                std::max(util::median(cpu_means), kMinOpUs);

        // Transfer factors: dataset mean-time ratio when the target
        // GPU has rows for the op type, else the calibrated-spec
        // throughput ratio.
        for (GpuModel gpu : hw::allGpuModels()) {
            if (gpu == reference_)
                continue;
            for (const auto &[op, estimator] : opModels_) {
                const double target = dataset.meanTimeUs(gpu, op);
                const double ref =
                    dataset.meanTimeUs(reference_, op);
                if (target > 0.0 && ref > 0.0)
                    scales_.emplace(std::make_pair(gpu, op),
                                    target / ref);
            }
        }
    }

    const std::string &name() const override { return name_; }

  private:
    void
    fillGrid(const Graph &g, std::span<const GpuModel> gpus,
             std::span<const int> ks,
             std::span<double> out) const override
    {
        // The reference-GPU estimate of every GPU node does not depend
        // on the target GPU, so it is computed once per graph.
        std::vector<double> estimates(g.size(), 0.0);
        for (std::size_t i = 0; i < g.size(); ++i) {
            const graph::Node &node = g.nodes()[i];
            if (node.device() == graph::Device::Cpu)
                continue;
            double estimate = refFallbackUs_;
            const auto model = opModels_.find(node.type);
            if (model != opModels_.end()) {
                estimate =
                    model->second.fitted
                        ? model->second.model.predict(
                              profile::opFeatures(node))
                        : model->second.medianUs;
            }
            estimates[i] = std::max(estimate, kMinOpUs);
        }
        for (std::size_t gi = 0; gi < gpus.size(); ++gi) {
            double total = 0.0;
            for (std::size_t i = 0; i < g.size(); ++i) {
                const graph::Node &node = g.nodes()[i];
                if (node.device() == graph::Device::Cpu)
                    total += cpuMedianUs_;
                else
                    total += estimates[i] * transferScale(gpus[gi], node);
            }
            std::fill_n(out.begin() + gi * ks.size(), ks.size(), total);
        }
    }

    struct OpEstimator
    {
        core::LinearModel model;
        double medianUs = 0.0;
        bool fitted = false;
    };

    /** Distinct instances needed before fitting a regression. */
    static constexpr std::size_t kMinFitInstances = 4;

    /** Reference-to-target time scale for @p node on @p gpu. */
    double
    transferScale(GpuModel gpu, const graph::Node &node) const
    {
        if (gpu == reference_)
            return 1.0;
        const auto it = scales_.find({gpu, node.type});
        if (it != scales_.end())
            return it->second;
        // Spec fallback: time scales inversely with the calibrated
        // throughput of the op's cost category (compute-bound
        // categories by TFLOP/s, the rest by GB/s).
        const graph::CostCategory category = node.category();
        const auto &ref =
            hw::gpuSpec(reference_).throughput(category);
        const auto &target = hw::gpuSpec(gpu).throughput(category);
        const bool compute_bound =
            category == graph::CostCategory::Conv ||
            category == graph::CostCategory::ConvFilterGrad ||
            category == graph::CostCategory::MatMulCat;
        return compute_bound ? ref.tflops / target.tflops
                             : ref.gbps / target.gbps;
    }

    std::string name_;
    GpuModel reference_;
    std::map<OpType, OpEstimator> opModels_;
    std::map<std::pair<GpuModel, OpType>, double> scales_;
    double refFallbackUs_ = kMinOpUs;
    double cpuMedianUs_ = kMinOpUs;
};

/**
 * DNNAbacus-style structure-matrix predictor (arXiv 2205.12095).
 *
 * Ignores per-op timings entirely: per GPU, run-level compute times
 * are regressed on the dense graph::netFeatures() structure vector of
 * each profiled CNN (rebuilt at the training batch size), and the
 * communication part is a separate non-negative linear term in
 * (k-1) * params anchored at the mean k=1 overhead. The split keeps
 * predictions monotone non-decreasing in k by construction — a raw
 * (features, k) regression can learn a negative k weight from noisy
 * small datasets.
 */
class DnnAbacusPredictor final : public Predictor
{
  public:
    explicit DnnAbacusPredictor(const profile::ProfileDataset &dataset,
                                std::int64_t batch = 32)
        : name_("dnnabacus")
    {
        if (dataset.iterations().empty())
            engineFatal(name_,
                        "no run-level iteration profiles in dataset "
                        "(profile with multi-GPU runs enabled)");

        // Structure vectors of every profiled CNN, built once.
        std::map<std::string, std::vector<double>> features;
        for (const profile::IterationProfile &run :
             dataset.iterations()) {
            if (features.count(run.model))
                continue;
            const Graph g = models::buildModel(run.model, batch);
            features.emplace(run.model, graph::netFeatures(g, flops));
        }

        for (GpuModel gpu : hw::allGpuModels()) {
            std::vector<std::vector<double>> x;
            std::vector<double> y;
            double comm_base = 0.0;
            std::size_t base_rows = 0;
            double slope_num = 0.0, slope_den = 0.0;
            for (const profile::IterationProfile &run :
                 dataset.iterations()) {
                if (run.gpu != gpu)
                    continue;
                x.push_back(features.at(run.model));
                y.push_back(run.meanComputeUs);
                if (run.numGpus == 1) {
                    comm_base += run.meanCommUs;
                    ++base_rows;
                }
            }
            if (y.empty())
                continue;
            PerGpuFit fit;
            fit.compute = core::LinearModel::fit(x, y);
            fit.commBaseUs =
                base_rows ? std::max(comm_base /
                                         static_cast<double>(
                                             base_rows),
                                     0.0)
                          : 0.0;
            // Through-origin slope of the k>1 overhead beyond the
            // k=1 base, clamped non-negative (monotonicity).
            for (const profile::IterationProfile &run :
                 dataset.iterations()) {
                if (run.gpu != gpu || run.numGpus < 2)
                    continue;
                const double scaled_params =
                    static_cast<double>(run.numGpus - 1) *
                    static_cast<double>(run.paramCount);
                slope_num += scaled_params *
                             (run.meanCommUs - fit.commBaseUs);
                slope_den += scaled_params * scaled_params;
            }
            fit.commSlopeUsPerParam =
                slope_den > 0.0
                    ? std::max(slope_num / slope_den, 0.0)
                    : 0.0;
            perGpu_.emplace(gpu, std::move(fit));
        }
    }

    const std::string &name() const override { return name_; }

  private:
    void
    fillGrid(const Graph &g, std::span<const GpuModel> gpus,
             std::span<const int> ks,
             std::span<double> out) const override
    {
        const std::vector<double> x = graph::netFeatures(g, flops);
        for (std::size_t gi = 0; gi < gpus.size(); ++gi) {
            const auto it = perGpu_.find(gpus[gi]);
            if (it == perGpu_.end())
                engineFatal(name_,
                            "no iteration profiles for GPU " +
                                hw::gpuModelName(gpus[gi]) +
                                " in dataset");
            const double compute =
                std::max(it->second.compute.predict(x), kMinOpUs);
            for (std::size_t ki = 0; ki < ks.size(); ++ki) {
                const double comm =
                    it->second.commBaseUs +
                    it->second.commSlopeUsPerParam *
                        static_cast<double>(ks[ki] - 1) *
                        static_cast<double>(g.totalParameters());
                out[gi * ks.size() + ki] = compute + comm;
            }
        }
    }

    struct PerGpuFit
    {
        core::LinearModel compute;
        double commBaseUs = 0.0;
        double commSlopeUsPerParam = 0.0;
    };

    static double
    flops(const graph::Node &node)
    {
        return hw::opCost(node).flops;
    }

    std::string name_;
    std::map<GpuModel, PerGpuFit> perGpu_;
};

} // namespace

void
Predictor::predictGrid(const Graph &g, std::span<const GpuModel> gpus,
                       std::span<const int> ks,
                       std::span<double> out) const
{
    if (out.size() != gpus.size() * ks.size())
        util::panic(util::format(
            "%s: predictGrid output has %zu slots for a %zu x %zu grid",
            name().c_str(), out.size(), gpus.size(), ks.size()));
    fillGrid(g, gpus, ks, out);
}

const std::vector<std::string> &
allPredictorNames()
{
    static const std::vector<std::string> names = {
        "ceer",        "ceer_heavy_only", "ceer_no_comm",
        "paleo_flops", "profet",          "dnnabacus",
    };
    return names;
}

std::vector<std::unique_ptr<Predictor>>
makePredictors(const std::vector<std::string> &names,
               const profile::ProfileDataset &dataset)
{
    const std::vector<std::string> &all = allPredictorNames();
    const std::vector<std::string> &requested =
        names.empty() ? all : names;
    for (const std::string &name : requested) {
        if (std::find(all.begin(), all.end(), name) == all.end())
            util::fatal("unknown predictor '" + name + "' (have: " +
                        util::join(all, ", ") + ")");
    }

    // Trained on the first ceer* request, shared by every variant.
    std::shared_ptr<const core::CeerPredictor> ceer;
    std::vector<std::unique_ptr<Predictor>> out;
    for (const std::string &name : requested) {
        OBS_TIMER("eval.train_us");
        if (name == "paleo_flops") {
            out.push_back(std::make_unique<PaleoFlopsPredictor>(dataset));
        } else if (name == "profet") {
            out.push_back(std::make_unique<ProfetPredictor>(dataset));
        } else if (name == "dnnabacus") {
            out.push_back(std::make_unique<DnnAbacusPredictor>(dataset));
        } else {
            if (!ceer) {
                if (dataset.ops().empty())
                    engineFatal(name, "profile dataset has no op rows");
                ceer = std::make_shared<const core::CeerPredictor>(
                    core::trainCeer(dataset));
            }
            const TermsTotal total = name == "ceer_heavy_only" ? heavyOnlyUs
                                     : name == "ceer_no_comm"  ? noCommUs
                                                               : fullUs;
            out.push_back(std::make_unique<CeerVariantPredictor>(
                name, ceer, total));
        }
    }
    return out;
}

} // namespace baselines
} // namespace ceer

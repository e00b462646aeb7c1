#include "core/trainer.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace ceer {
namespace core {

using graph::Device;
using graph::OpType;
using hw::GpuModel;
using profile::IterationProfile;
using profile::OpProfile;
using profile::ProfileDataset;

namespace {

/** Classification step: heavy iff mean time on the threshold GPU is
 *  above the threshold. GPU ops never seen on the threshold GPU stay
 *  light. */
std::set<OpType>
classifyHeavy(const ProfileDataset &dataset, const TrainOptions &options)
{
    std::set<OpType> heavy;
    for (OpType op : dataset.opTypes(options.thresholdGpu)) {
        if (graph::opTypeInfo(op).device != Device::Gpu)
            continue;
        if (dataset.meanTimeUs(options.thresholdGpu, op) >=
            options.heavyThresholdUs) {
            heavy.insert(op);
        }
    }
    return heavy;
}

/** Fits one heavy-op model from its instances on one GPU. */
OpTimeModel
fitOpModel(GpuModel gpu, OpType op,
           const std::vector<const OpProfile *> &instances,
           const TrainOptions &options)
{
    OpTimeModel fitted;
    fitted.gpu = gpu;
    fitted.op = op;

    // Deduplicate identical feature vectors across CNNs: the same
    // {op, input size} instance may appear in several models.
    std::map<std::vector<double>, util::RunningStats> unique;
    std::vector<double> means;
    for (const OpProfile *instance : instances) {
        unique[instance->features].add(instance->timeUs.mean());
        means.push_back(instance->timeUs.mean());
    }
    fitted.medianUs = util::median(means);
    fitted.points = unique.size();
    if (unique.size() < options.minPoints)
        return fitted; // not usable; falls back to the median.

    std::vector<std::vector<double>> X;
    std::vector<double> y;
    for (const auto &[features, stats] : unique) {
        X.push_back(features);
        y.push_back(stats.mean());
    }

    const LinearModel linear = LinearModel::fit(X, y);
    const double linear_r2 = linear.rSquared(X, y);

    // The quadratic expansion doubles the feature count; below
    // expanded-dimension + 1 distinct points the fit is
    // underdetermined and would interpolate noise rather than reveal
    // curvature, so it cannot legitimately beat the linear fit —
    // skip it (and the expansion work) outright. When attempted, the
    // expansion goes into a per-thread scratch buffer reused across
    // cells instead of allocating a fresh row-of-rows per fit.
    const std::size_t quad_min =
        std::max(options.minPoints, 2 * X.front().size() + 1);
    bool prefer_quadratic = false;
    LinearModel quad;
    double quad_r2 = 0.0;
    if (unique.size() >= quad_min) {
        static thread_local std::vector<std::vector<double>> expanded;
        quadraticExpandInto(X, &expanded);
        quad = LinearModel::fit(expanded, y);
        quad_r2 = quad.rSquared(expanded, y);
        prefer_quadratic = quad_r2 > linear_r2 + options.quadraticGain;
    } else {
        OBS_COUNTER_INC("trainer.quadratic_skips");
    }

    if (prefer_quadratic) {
        fitted.quadratic = true;
        fitted.model = quad;
        fitted.r2 = quad_r2;
    } else {
        fitted.quadratic = false;
        fitted.model = linear;
        fitted.r2 = linear_r2;
    }
    fitted.usable = true;
    return fitted;
}

/** Fits S_1 and the D_k (k >= 2) comm regressions for every GPU. */
CommModel
fitCommModel(const ProfileDataset &dataset)
{
    CommModel comm;
    // Bucket run-level profiles: (gpu, model) -> per-k iteration data.
    struct RunPoint
    {
        double params = 0.0;
        double iterationUs[8] = {0};
        double commUs1 = 0.0;
        bool have[8] = {false};
    };
    std::map<GpuModel, std::map<std::string, RunPoint>> buckets;
    int max_k = 1;
    for (const IterationProfile &run : dataset.iterations()) {
        if (run.numGpus < 1 || run.numGpus > 8)
            continue;
        RunPoint &point = buckets[run.gpu][run.model];
        point.params = static_cast<double>(run.paramCount);
        point.iterationUs[run.numGpus - 1] = run.meanIterationUs;
        point.have[run.numGpus - 1] = true;
        if (run.numGpus == 1)
            point.commUs1 = run.meanCommUs;
        max_k = std::max(max_k, run.numGpus);
    }

    for (const auto &[gpu, models] : buckets) {
        auto &per_k = comm.fits[gpu];
        per_k.resize(static_cast<std::size_t>(max_k));

        // k = 1: host<->GPU overhead straight from the "GPU logs".
        std::vector<std::vector<double>> x1;
        std::vector<double> y1;
        for (const auto &[name, point] : models) {
            if (!point.have[0])
                continue;
            x1.push_back({point.params});
            y1.push_back(point.commUs1);
        }
        if (x1.size() >= 2) {
            per_k[0].model = LinearModel::fit(x1, y1);
            per_k[0].r2 = per_k[0].model.rSquared(x1, y1);
            per_k[0].valid = true;
        }

        // k >= 2: the paper's subtraction method.
        for (int k = 2; k <= max_k; ++k) {
            std::vector<std::vector<double>> x;
            std::vector<double> y;
            for (const auto &[name, point] : models) {
                if (!point.have[0] || !point.have[k - 1])
                    continue;
                x.push_back({point.params});
                y.push_back(point.iterationUs[k - 1] -
                            point.iterationUs[0]);
            }
            if (x.size() >= 2) {
                auto &fit = per_k[static_cast<std::size_t>(k) - 1];
                fit.model = LinearModel::fit(x, y);
                fit.r2 = fit.model.rSquared(x, y);
                fit.valid = true;
            }
        }
    }
    return comm;
}

} // namespace

CeerModel
trainCeer(const ProfileDataset &dataset, const TrainOptions &options)
{
    OBS_SPAN("trainer.trainCeer", "trainer");
    CeerModel model;
    model.heavyThresholdUs = options.heavyThresholdUs;
    model.heavyOps = classifyHeavy(dataset, options);

    // Enumerate the (GPU, heavy op) fit cells in canonical order, fit
    // them (in parallel when asked — each fit is a pure function of
    // its cell), and merge in cell order. Output is byte-identical at
    // any thread count.
    struct FitCell
    {
        GpuModel gpu;
        OpType op;
        std::vector<const OpProfile *> instances;
    };
    std::vector<FitCell> cells;
    for (GpuModel gpu : hw::allGpuModels()) {
        for (OpType op : model.heavyOps) {
            auto instances = dataset.opsFor(gpu, op);
            if (instances.empty())
                continue;
            cells.push_back({gpu, op, std::move(instances)});
        }
    }

    std::vector<OpTimeModel> fitted(cells.size());
    const auto fit_cell = [&](std::size_t i) {
        OBS_TIMER("trainer.fit_cell_us");
        fitted[i] = fitOpModel(cells[i].gpu, cells[i].op,
                               cells[i].instances, options);
        OBS_COUNTER_INC("trainer.cells");
    };
    // Regression fits are hundreds of microseconds each; the static
    // hint keeps the grain at one cell per claim so the slowest cells
    // still balance across workers.
    util::ParallelOptions parallel;
    parallel.costHintUs = 500.0;
    parallel.maxThreads = util::ThreadPool::effectiveThreads(options.threads);
    util::ThreadPool::shared().parallelForRange(
        cells.size(), parallel, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                fit_cell(i);
        });
    for (std::size_t i = 0; i < cells.size(); ++i) {
        model.opModels.emplace(std::make_pair(cells[i].gpu,
                                              cells[i].op),
                               std::move(fitted[i]));
    }

    // The fallback medians pool the reservoir samples of every light
    // GPU row and of every CPU row. One pass gathers views of the
    // rows' samples; the medians are selected in place, so nothing the
    // size of the pools is copied.
    std::vector<std::span<const double>> light, cpu;
    for (const OpProfile &p : dataset.ops()) {
        if (p.onCpu)
            cpu.emplace_back(p.samples.samples());
        else if (!model.heavyOps.count(p.op))
            light.emplace_back(p.samples.samples());
    }
    model.lightMedianUs = util::median(light);
    model.cpuMedianUs = util::median(cpu);

    model.comm = fitCommModel(dataset);

    const auto [r2_lo, r2_hi] = model.opModelR2Range();
    CEER_LOG(Info) << "trained Ceer: " << model.heavyOps.size()
                   << " heavy op types, op-model R^2 in ["
                   << util::format("%.3f", r2_lo) << ", "
                   << util::format("%.3f", r2_hi) << "], light median "
                   << util::format("%.1f", model.lightMedianUs)
                   << "us, cpu median "
                   << util::format("%.1f", model.cpuMedianUs) << "us";
    return model;
}

} // namespace core
} // namespace ceer

#include "core/predict_plan.h"

#include <algorithm>
#include <array>

#include "core/predictor.h"
#include "obs/metrics.h"
#include "profile/features.h"
#include "util/logging.h"

// The evaluation kernel is multiversioned via the shared macro; this
// TU is compiled with -ffp-contract=off (see CMakeLists.txt) so no
// clone fuses multiply-add into FMA and every clone returns the same
// bits as a scalar per-node accumulation.
#include "util/target_clones.h"

namespace ceer {
namespace core {

namespace plan_kernel {

namespace {
/** Rows processed per kernel block (accumulator tile size). */
constexpr std::size_t kBlock = 256;
} // namespace

CEER_VECTOR_CLONES double
dotClampSum(const double *x, std::size_t n, std::size_t d,
            const double *w, const double *s, double intercept)
{
    // Per block: seed every lane with the intercept, stream the
    // feature columns (j outermost, so each lane replays
    // LinearModel::predict's j-ascending add sequence exactly), then
    // clamp and fold into the running sum. The sum is carried across
    // blocks left-to-right, so the overall association matches a
    // plain per-node scalar accumulation.
    std::array<double, kBlock> acc;
    double sum = 0.0;
    for (std::size_t start = 0; start < n; start += kBlock) {
        const std::size_t len = std::min(kBlock, n - start);
        const double *rows = x + start * d;
        for (std::size_t i = 0; i < len; ++i)
            acc[i] = intercept;
        for (std::size_t j = 0; j < d; ++j) {
            const double wj = w[j];
            const double sj = s[j];
            for (std::size_t i = 0; i < len; ++i)
                acc[i] += wj * (rows[i * d + j] / sj);
        }
        for (std::size_t i = 0; i < len; ++i)
            sum += std::max(acc[i], 1.0);
    }
    return sum;
}

} // namespace plan_kernel

graph::OpType
PredictPlan::groupOp(std::size_t i) const
{
    if (i >= groupOps_.size())
        util::panic("PredictPlan::groupOp: bad group index");
    return groupOps_[i];
}

double
PredictPlan::groupHeavyUs(std::size_t i, hw::GpuModel gpu) const
{
    const std::size_t slot = static_cast<std::size_t>(gpu);
    const std::size_t slots = heavyUs_.size();
    if (i >= groupOps_.size() || slot >= slots)
        util::panic("PredictPlan::groupHeavyUs: bad group or GPU slot");
    return groupUs_[i * slots + slot];
}

double
PredictPlan::heavyUs(hw::GpuModel gpu) const
{
    const std::size_t slot = static_cast<std::size_t>(gpu);
    if (slot >= heavyUs_.size())
        util::panic("PredictPlan::heavyUs: unknown GPU slot");
    return heavyUs_[slot];
}

double
PredictPlan::lightUs() const
{
    return static_cast<double>(lightCount_) * lightMedianUs_;
}

double
PredictPlan::cpuUs() const
{
    return static_cast<double>(cpuCount_) * cpuMedianUs_;
}

std::size_t
PredictPlan::approxBytes() const
{
    return sizeof *this + groupOps_.capacity() * sizeof(graph::OpType) +
           (groupUs_.capacity() + heavyUs_.capacity()) * sizeof(double);
}

PredictPlan
CeerPredictor::compile(const graph::Graph &g) const
{
    OBS_TIMER("predictor.compile_us");
    OBS_COUNTER_INC("predictor.plan_builds");
    PredictPlan plan;
    plan.nodeCount_ = g.size();
    plan.lightMedianUs_ = model_.lightMedianUs;
    plan.cpuMedianUs_ = model_.cpuMedianUs;
    plan.paramCount_ = static_cast<double>(g.totalParameters());
    plan.batchSize_ = g.batchSize();

    std::size_t slots = 0;
    for (hw::GpuModel gpu : hw::allGpuModels())
        slots = std::max(slots, static_cast<std::size_t>(gpu) + 1);

    // One walk: classify every node once; heavy instances append a
    // feature row to their op type's row-major matrix (groups in
    // first-appearance order, rows in graph order — the accumulation
    // order contract).
    const std::size_t d = profile::kNumOpFeatures;
    std::vector<std::vector<double>> features;
    for (const graph::Node &node : g.nodes()) {
        switch (model_.classify(node.type)) {
          case OpClass::Cpu:
            ++plan.cpuCount_;
            break;
          case OpClass::Light:
            ++plan.lightCount_;
            break;
          case OpClass::Heavy: {
            const std::size_t group = static_cast<std::size_t>(
                std::find(plan.groupOps_.begin(), plan.groupOps_.end(),
                          node.type) -
                plan.groupOps_.begin());
            if (group == plan.groupOps_.size()) {
                plan.groupOps_.push_back(node.type);
                features.emplace_back();
            }
            const std::vector<double> row = profile::opFeatures(node);
            features[group].insert(features[group].end(), row.begin(),
                                   row.end());
            ++plan.heavyCount_;
            break;
          }
        }
    }

    // Every group on every GPU: the fitted model as a dense mat-vec in
    // the scaled space predict() computes in (over the quadratic
    // expansion, built once per group, when the fit selected it), or
    // the flat per-node fallback (unusable fit -> clamped median;
    // never profiled on this GPU -> the paper's light-median rule).
    plan.groupUs_.assign(plan.groupOps_.size() * slots, 0.0);
    std::vector<double> quad;
    for (std::size_t i = 0; i < plan.groupOps_.size(); ++i) {
        const std::vector<double> &raw = features[i];
        const std::size_t rows = raw.size() / d;
        quad.clear();
        for (hw::GpuModel gpu : hw::allGpuModels()) {
            double &us =
                plan.groupUs_[i * slots + static_cast<std::size_t>(gpu)];
            const OpTimeModel *op_model =
                model_.opModel(gpu, plan.groupOps_[i]);
            if (!op_model) {
                us = static_cast<double>(rows) * model_.lightMedianUs;
                continue;
            }
            if (!op_model->usable) {
                us = static_cast<double>(rows) *
                     std::max(op_model->medianUs, 1.0);
                continue;
            }
            if (op_model->quadratic && quad.empty()) {
                quad.reserve(rows * 2 * d);
                for (std::size_t row = 0; row < rows; ++row) {
                    const double *x = raw.data() + row * d;
                    quad.insert(quad.end(), x, x + d);
                    for (std::size_t j = 0; j < d; ++j)
                        quad.push_back(x[j] * x[j]);
                }
            }
            const LinearModel &fit = op_model->model;
            us = plan_kernel::dotClampSum(
                op_model->quadratic ? quad.data() : raw.data(), rows,
                fit.featureCount(), fit.scaledWeights().data(),
                fit.scales().data(), fit.intercept());
        }
    }

    // The heavy term per GPU: group sums added in group order from
    // 0.0, the accumulation order of the scalar reference.
    plan.heavyUs_.assign(slots, 0.0);
    for (std::size_t slot = 0; slot < slots; ++slot)
        for (std::size_t i = 0; i < plan.groupOps_.size(); ++i)
            plan.heavyUs_[slot] += plan.groupUs_[i * slots + slot];
    return plan;
}

} // namespace core
} // namespace ceer

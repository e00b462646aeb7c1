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
    if (i >= groups_.size())
        util::panic("PredictPlan::groupOp: bad group index");
    return groups_[i].op;
}

double
PredictPlan::groupHeavyUs(std::size_t i, hw::GpuModel gpu) const
{
    const std::size_t slot = static_cast<std::size_t>(gpu);
    if (i >= groups_.size() || slot >= groups_[i].recipes.size())
        util::panic("PredictPlan::groupHeavyUs: bad group or GPU slot");
    const OpGroup &group = groups_[i];
    const GpuRecipe &recipe = group.recipes[slot];
    if (!recipe.viaModel)
        return static_cast<double>(group.rows) * recipe.flatUs;
    const double *matrix = recipe.quadratic ? group.quadFeatures.data()
                                            : group.features.data();
    return plan_kernel::dotClampSum(matrix, group.rows,
                                    recipe.weights.size(),
                                    recipe.weights.data(),
                                    recipe.scales.data(),
                                    recipe.intercept);
}

double
PredictPlan::heavyUs(hw::GpuModel gpu) const
{
    const std::size_t slot = static_cast<std::size_t>(gpu);
    Memo &memo = *memo_;
    if (slot >= memo.ready.size())
        util::panic("PredictPlan::heavyUs: unknown GPU slot");
    if (memo.ready[slot].load(std::memory_order_acquire)) {
        OBS_COUNTER_INC("predictor.memo_hits");
        return memo.value[slot];
    }

    std::lock_guard<std::mutex> lock(memo.mutex);
    if (memo.ready[slot].load(std::memory_order_relaxed)) {
        OBS_COUNTER_INC("predictor.memo_hits");
        return memo.value[slot];
    }

    double heavy = 0.0;
    for (std::size_t i = 0; i < groups_.size(); ++i)
        heavy += groupHeavyUs(i, gpu);
    memo.value[slot] = heavy;
    memo.ready[slot].store(true, std::memory_order_release);
    OBS_COUNTER_INC("predictor.memo_fills");
    return heavy;
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
    std::size_t bytes = sizeof *this;
    for (const OpGroup &group : groups_) {
        bytes += sizeof group;
        bytes += (group.features.capacity() +
                  group.quadFeatures.capacity()) *
                 sizeof(double);
        for (const GpuRecipe &recipe : group.recipes) {
            bytes += sizeof recipe;
            bytes += (recipe.weights.capacity() +
                      recipe.scales.capacity()) *
                     sizeof(double);
        }
    }
    if (memo_)
        bytes += sizeof(Memo) +
                 memo_->ready.capacity() * sizeof(std::atomic<bool>) +
                 memo_->value.capacity() * sizeof(double);
    return bytes;
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

    std::size_t gpu_slots = 0;
    for (hw::GpuModel gpu : hw::allGpuModels())
        gpu_slots = std::max(gpu_slots,
                             static_cast<std::size_t>(gpu) + 1);

    // One walk: classify every node once; heavy instances append a
    // feature row to their op type's group (groups in first-appearance
    // order, rows in graph order — the accumulation order contract).
    for (const graph::Node &node : g.nodes()) {
        switch (model_.classify(node.type)) {
          case OpClass::Cpu:
            ++plan.cpuCount_;
            break;
          case OpClass::Light:
            ++plan.lightCount_;
            break;
          case OpClass::Heavy: {
            PredictPlan::OpGroup *group = nullptr;
            for (PredictPlan::OpGroup &candidate : plan.groups_) {
                if (candidate.op == node.type) {
                    group = &candidate;
                    break;
                }
            }
            if (!group) {
                plan.groups_.emplace_back();
                group = &plan.groups_.back();
                group->op = node.type;
            }
            const std::vector<double> features =
                profile::opFeatures(node);
            group->features.insert(group->features.end(),
                                   features.begin(), features.end());
            ++group->rows;
            ++plan.heavyCount_;
            break;
          }
        }
    }

    // Per-GPU evaluation recipes: snapshot the fitted model in the
    // scaled space predict() actually computes in, or record the flat
    // per-node fallback (unusable fit -> clamped median; never
    // profiled on this GPU -> the paper's light-median rule). The
    // quadratic expansion is materialized lazily in the sense that it
    // exists only when some GPU's fitted model selected it.
    for (PredictPlan::OpGroup &group : plan.groups_) {
        group.recipes.resize(gpu_slots);
        bool any_quadratic = false;
        for (hw::GpuModel gpu : hw::allGpuModels()) {
            PredictPlan::GpuRecipe &recipe =
                group.recipes[static_cast<std::size_t>(gpu)];
            const OpTimeModel *op_model = model_.opModel(gpu, group.op);
            if (!op_model) {
                recipe.flatUs = model_.lightMedianUs;
            } else if (!op_model->usable) {
                recipe.flatUs = std::max(op_model->medianUs, 1.0);
            } else {
                recipe.viaModel = true;
                recipe.quadratic = op_model->quadratic;
                recipe.weights = op_model->model.scaledWeights();
                recipe.scales = op_model->model.scales();
                recipe.intercept = op_model->model.intercept();
                any_quadratic |= op_model->quadratic;
            }
        }
        if (any_quadratic) {
            const std::size_t d = profile::kNumOpFeatures;
            group.quadFeatures.reserve(group.rows * 2 * d);
            for (std::size_t row = 0; row < group.rows; ++row) {
                const double *raw = group.features.data() + row * d;
                for (std::size_t j = 0; j < d; ++j)
                    group.quadFeatures.push_back(raw[j]);
                for (std::size_t j = 0; j < d; ++j)
                    group.quadFeatures.push_back(raw[j] * raw[j]);
            }
        }
    }

    plan.memo_ = std::make_unique<PredictPlan::Memo>();
    plan.memo_->ready = std::vector<std::atomic<bool>>(gpu_slots);
    plan.memo_->value.assign(gpu_slots, 0.0);
    return plan;
}

} // namespace core
} // namespace ceer

#include "hw/device_model.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/random.h"

namespace ceer {
namespace hw {

using graph::CostCategory;
using graph::Device;
using graph::Node;
using graph::OpType;

KernelWork::KernelWork(const Node &node)
    : category(node.category()), cost(opCost(node))
{
    if (node.device() != Device::Gpu)
        util::panic("GpuTimingModel: timing a CPU op " + node.name);
    const std::int64_t input_bytes = node.inputBytes();
    if (node.type == OpType::Conv2DBackpropFilter)
        filterGradInputBytes = static_cast<double>(input_bytes);

    // The wobble key: the full shape signature, so identical instances
    // agree across runs. The GPU's salt is XORed in per GPU.
    wobbleKey = 0x2545F4914F6CDD1Dull;
    wobbleKey ^= static_cast<std::uint64_t>(node.type) * 0x9E3779B97F4A7C15ull;
    wobbleKey ^= static_cast<std::uint64_t>(node.outputBytes()) *
                 0xFF51AFD7ED558CCDull;
    std::uint64_t mix = 1;
    for (const auto &shape : node.inputShapes) {
        mix = mix * 0x100000001B3ull +
              static_cast<std::uint64_t>(shape.numElements());
    }
    wobbleKey ^= mix;

    // The sigma key: {op type, input bytes}; the GPU model is XORed in
    // per GPU.
    sigmaKey = 0x6A09E667F3BCC909ull;
    sigmaKey ^= static_cast<std::uint64_t>(node.type) * 0x9E3779B97F4A7C15ull;
    sigmaKey ^=
        static_cast<std::uint64_t>(input_bytes) * 0xC2B2AE3D27D4EB4Full;
}

GpuTimingModel::GpuTimingModel(GpuModel model) : spec_(&gpuSpec(model)) {}

namespace {

/**
 * Deterministic per-instance efficiency wobble in [1-amp, 1+amp].
 *
 * Real kernels deviate from roofline predictions instance by instance
 * (tiling, occupancy, cache effects). The wobble is keyed on the full
 * shape signature, so identical instances agree across runs while the
 * deviation is irreducible for input-size regressions — this is what
 * keeps Ceer's R^2 in the paper's 0.84-0.98 band instead of 1.0.
 */
double
instanceWobble(std::uint64_t key, double amplitude)
{
    const double u =
        static_cast<double>(util::splitMix64(key) >> 11) * 0x1.0p-53;
    return 1.0 + amplitude * (2.0 * u - 1.0);
}

} // namespace

KernelTiming
GpuTimingModel::timing(const KernelWork &work) const
{
    const CategoryThroughput &rate = spec_->throughput(work.category);
    double compute_us = 0.0;
    double memory_us = 0.0;
    if (work.cost.flops > 0.0 && rate.tflops > 0.0)
        compute_us = work.cost.flops / (rate.tflops * 1e6);
    if (work.cost.bytes > 0.0 && rate.gbps > 0.0)
        memory_us = work.cost.bytes / (rate.gbps * 1e3);
    double work_us = std::max(compute_us, memory_us);

    if (work.filterGradInputBytes > 0.0) {
        // Atomics/workspace contention grows with the activation size,
        // making this kernel superlinear in its input (paper Sec. IV-B
        // fits it with a quadratic).
        work_us *= 1.0 + work.filterGradInputBytes /
                             spec_->filterGradKneeBytes;
    }
    work_us *= instanceWobble(
        work.wobbleKey ^ static_cast<std::uint64_t>(spec_->model), 0.10);

    const double sigma_inst = instanceSigma(work);
    const double sigma_short = 0.32 * std::exp(-work_us / 7.0);
    return {spec_->kernelLaunchUs + work_us,
            std::sqrt(sigma_inst * sigma_inst +
                      sigma_short * sigma_short)};
}

double
GpuTimingModel::instanceSigma(const KernelWork &work) const
{
    // Hash {op type, input bytes, GPU model} into a stable uniform u,
    // then map through 0.012 + 0.10 * u^3: median sigma ~0.025, 95th
    // percentile ~0.098 and a small tail above 0.1 — reproducing the
    // paper's Fig. 5 CDF of normalized stddev across instances.
    std::uint64_t key =
        work.sigmaKey ^
        static_cast<std::uint64_t>(spec_->model) * 0x165667B19E3779F9ull;
    const double u =
        static_cast<double>(util::splitMix64(key) >> 11) * 0x1.0p-53;
    return 0.012 + 0.10 * u * u * u;
}

CpuTimingModel::CpuTimingModel(double speed_factor)
    : speedFactor_(speed_factor)
{
    if (speed_factor <= 0.0)
        util::panic("CpuTimingModel: speed factor must be positive");
}

double
CpuTimingModel::meanTimeUs(const Node &node) const
{
    if (node.device() != Device::Cpu)
        util::panic("CpuTimingModel::meanTimeUs on GPU op " + node.name);
    const double bytes = static_cast<double>(node.outputBytes());
    double base_us = 0.0;
    double gbps = 1.0;
    switch (node.type) {
      case OpType::DecodeJpeg:
        // Raw JPEG decode of a batch takes tens of ms, but the input
        // pipeline prefetches it off the critical path; only a small
        // residual dequeue cost is visible per training step.
        base_us = 250.0;
        gbps = 40.0;
        break;
      case OpType::IteratorGetNext:
        // Batch dequeue from the host pipeline: partially hidden by
        // prefetching, but moving a ~20MB image batch out of the
        // staging area is a real per-step cost in TF r1.x.
        base_us = 400.0;
        gbps = 2.0;
        break;
      case OpType::SparseToDense:
        base_us = 30.0;
        gbps = 1.5;
        break;
      case OpType::OneHot:
        base_us = 20.0;
        gbps = 2.0;
        break;
      case OpType::RandomUniform:
        base_us = 10.0;
        gbps = 1.0;
        break;
      case OpType::Range:
        base_us = 12.0;
        gbps = 4.0;
        break;
      case OpType::Assert:
        base_us = 18.0;
        gbps = 4.0;
        break;
      default:
        base_us = 25.0;
        gbps = 1.0;
        break;
    }
    return (base_us + bytes / (gbps * 1e3)) * speedFactor_;
}

double
hostSpeedFactor(GpuModel model)
{
    // Newer instance families ship newer host CPUs.
    switch (model) {
      case GpuModel::V100: return 1.0;
      case GpuModel::T4:   return 0.95;
      case GpuModel::M60:  return 1.10;
      case GpuModel::K80:  return 1.15;
    }
    util::panic("hostSpeedFactor: unknown GpuModel");
}

} // namespace hw
} // namespace ceer

/**
 * @file
 * Timing models for GPU kernels and CPU ops.
 *
 * GpuTimingModel turns the analytic OpCost of a node into a compute
 * time on a specific GPU: launch overhead plus a roofline
 * max(flops / eff_tflops, bytes / eff_gbps) with a superlinear
 * correction for Conv2DBackpropFilter.
 *
 * The models are deterministic: they give each GPU kernel its median
 * time and lognormal sigma, and each CPU op its mean time. A GPU
 * kernel's GPU-independent inputs are read once into a KernelWork and
 * timed per GPU. sim::ExecPlan copies these into its lanes, and the
 * sampling kernel (sim/sample_kernel.h) is the one place noise is
 * drawn: lognormal around the median for GPU ops, gamma with CV ~= 0.6
 * around the mean for CPU ops.
 *
 * The noise reproduces the paper's Fig. 5: for a fixed {heavy op,
 * input size} pair, run-to-run variability is low (95% of pairs have
 * normalized stddev < 0.1), while light and CPU ops vary a lot. Each
 * {op type, input size, GPU} instance gets a deterministic noise level
 * drawn from a hash, so the *distribution* of variabilities across
 * instances matches the paper's CDF.
 */

#ifndef CEER_HW_DEVICE_MODEL_H
#define CEER_HW_DEVICE_MODEL_H

#include <cstdint>

#include "graph/graph.h"
#include "hw/gpu_spec.h"
#include "hw/op_cost.h"

namespace ceer {
namespace hw {

/**
 * The GPU-independent inputs of a GPU kernel's timing: everything
 * GpuTimingModel reads from the node, read once. sim::ExecPlan builds
 * one per node and times it on every GPU model, so the analytic cost,
 * the byte counts and the hash keys are not recomputed per GPU.
 */
struct KernelWork
{
    /**
     * Reads @p node. Implicit, so a timing query can take a node.
     * Panics if the node is CPU-placed.
     */
    KernelWork(const graph::Node &node);

    graph::CostCategory category; ///< Selects the GPU's throughput row.
    OpCost cost;                  ///< Analytic flops and bytes.
    /// Input bytes of a Conv2DBackpropFilter kernel, whose time is
    /// superlinear in them; 0 for every other op.
    double filterGradInputBytes = 0.0;
    /// The GPU-independent part of the efficiency-wobble hash key.
    std::uint64_t wobbleKey = 0;
    /// The GPU-independent part of the instance-sigma hash key.
    std::uint64_t sigmaKey = 0;
};

/** A GPU kernel's median time and lognormal sigma on one GPU. */
struct KernelTiming
{
    double meanUs = 0.0; ///< Noise-free (median) time in microseconds.
    /**
     * Total lognormal sigma: the instance sigma combined with a
     * short-kernel term ~0.32*exp(-work/7us) that makes launch-bound
     * kernels noisy while leaving kernels above ~20us inside the
     * paper's Fig. 5 variability band.
     */
    double sigma = 0.0;
};

/** Compute-time model for one GPU model. */
class GpuTimingModel
{
  public:
    /** @param model Which GPU silicon to model. */
    explicit GpuTimingModel(GpuModel model);

    /** The spec this model was built from. */
    const GpuSpec &spec() const { return *spec_; }

    /** Median time and effective sigma of @p work on this GPU. */
    KernelTiming timing(const KernelWork &work) const;

    /**
     * Deterministic lognormal sigma for a {op type, input size, GPU}
     * instance. Heavy (work-dominated) kernels receive sigma in
     * [0.012, 0.112] with ~95% below 0.1; timing() adds a term that
     * decays with kernel duration to make short kernels noisy.
     */
    double instanceSigma(const KernelWork &work) const;

  private:
    const GpuSpec *spec_;
};

/** Compute-time model for CPU-placed ops (host kernels). */
class CpuTimingModel
{
  public:
    /**
     * @param speed_factor Relative host speed of the instance family
     *                     (1.0 = baseline); larger is slower.
     */
    explicit CpuTimingModel(double speed_factor = 1.0);

    /** Mean time of @p node in microseconds. */
    double meanTimeUs(const graph::Node &node) const;

  private:
    double speedFactor_;
};

/** Host speed factor of the instance family carrying @p model. */
double hostSpeedFactor(GpuModel model);

} // namespace hw
} // namespace ceer

#endif // CEER_HW_DEVICE_MODEL_H

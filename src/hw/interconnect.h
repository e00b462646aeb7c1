/**
 * @file
 * Host<->GPU and GPU<->GPU communication model.
 *
 * The per-iteration communication overhead S_GPU(k, params) is the
 * ground truth Ceer's comm regression (paper Sec. IV-C) has to learn.
 * It is linear in the parameter-byte count for every fixed (GPU type,
 * k), matching the paper's Fig. 7:
 *
 *   S(1) = lat + input_bytes/pcie + param_bytes/staging
 *   S(k>=2) = S(1) + (sync_lat + param_bytes / sync)
 *             * g(k) * (1 + straggler*(k-1))
 *
 * with g(k) = 2(k-1)/k (ring all-reduce traffic). "staging" models the
 * TF r1.x replicated-variable refresh between host and device each
 * iteration. The k>=2 overhead has a *large constant* term (sync_lat:
 * barrier stalls and launch serialization of the synchronization ops)
 * plus a bandwidth term; the constant is what makes small models like
 * Inception-v1 scale as poorly as the paper's Fig. 6 shows while
 * 45-145M-parameter models still scale usefully (Fig. 10). The
 * straggler term reproduces the growing synchronization tail the paper
 * attributes to more GPUs (Sec. III-D).
 */

#ifndef CEER_HW_INTERCONNECT_H
#define CEER_HW_INTERCONNECT_H

#include <cstdint>

#include "hw/gpu_spec.h"

namespace ceer {
namespace hw {

/** Per-family interconnect description. */
struct InterconnectSpec
{
    double pcieGbps;        ///< Input-batch transfer bandwidth.
    double stagingGbps;     ///< Per-iteration variable refresh bw.
    double syncGbps;        ///< Effective all-reduce bandwidth.
    double baseLatencyUs;   ///< Host-sync latency (k = 1 term).
    double syncLatencyUs;   ///< Constant barrier cost per sync round.
    double stragglerFactor; ///< Tail growth per additional GPU.
    /**
     * Effective all-reduce bandwidth once the ring crosses host
     * boundaries (10-25 GbE era NICs; far below the intra-host PCIe
     * path). Exercised when a deployment spans multiple hosts — the
     * paper's Sec. VI limitation 2 notes its comm model would need
     * retraining for this case.
     */
    double networkGbps;
};

/** Returns the interconnect spec of the family carrying @p model. */
const InterconnectSpec &interconnectSpec(GpuModel model);

/**
 * Mean per-iteration communication overhead in microseconds.
 *
 * @param model       GPU model (selects the interconnect).
 * @param num_gpus    Number of data-parallel GPUs (>= 1).
 * @param param_bytes Total trainable parameter bytes of the CNN.
 * @param input_bytes Per-GPU input batch bytes.
 */
double commOverheadUs(GpuModel model, int num_gpus, double param_bytes,
                      double input_bytes, int gpus_per_host = 8);

/**
 * Samples one iteration's communication overhead: lognormal noise
 * (sigma 0.06) around the mean, a pure function of (seed, iteration).
 * The sample for any iteration is independent of how many iterations
 * ran before it, which lets the simulator fan iterations out across
 * threads while staying bit-deterministic.
 */
double sampleCommOverheadUs(GpuModel model, int num_gpus,
                            double param_bytes, double input_bytes,
                            std::uint64_t seed, std::int64_t iteration,
                            int gpus_per_host = 8);

} // namespace hw
} // namespace ceer

#endif // CEER_HW_INTERCONNECT_H

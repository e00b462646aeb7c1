/**
 * @file
 * Hardware descriptions of the four AWS GPU models from the paper:
 * NVIDIA Tesla V100 (P3), K80 (P2), T4 (G4) and Tesla M60 (G3).
 *
 * The specs combine published peak numbers (CUDA cores, memory size)
 * with *effective* per-category throughputs calibrated so that the
 * simulator reproduces the paper's aggregate observations (Sec. III):
 * averaged over heavy ops, P3 is ~10x faster than P2 and ~4x faster
 * than G4, P2 is ~1.5x slower than G3, pooling kernels favour the
 * V100's memory system enough that P3 wins them on *cost* despite its
 * 4x price, and FusedBatchNormGradV3 is the op where G4's cost
 * advantage peaks. See DESIGN.md ("Calibration targets").
 */

#ifndef CEER_HW_GPU_SPEC_H
#define CEER_HW_GPU_SPEC_H

#include <string>
#include <vector>

#include "graph/op_type.h"

namespace ceer {
namespace hw {

/** The four GPU silicon models offered by AWS (paper Sec. II). */
enum class GpuModel { V100, K80, T4, M60 };

/** Effective throughput of one cost category on one GPU. */
struct CategoryThroughput
{
    double tflops; ///< Effective compute throughput (TFLOP/s).
    double gbps;   ///< Effective memory throughput (GB/s).
};

/** Full description of one GPU model. */
struct GpuSpec
{
    GpuModel model;          ///< Which silicon.
    std::string name;        ///< Marketing name, e.g. "Tesla V100".
    std::string family;      ///< AWS instance family: P3/P2/G4/G3.
    int cudaCores;           ///< Published parallel core count.
    double memoryGB;         ///< Device memory.
    double peakTflops;       ///< Published peak fp32 TFLOP/s.
    double peakGbps;         ///< Published peak memory bandwidth.
    /**
     * Fixed per-op overhead: kernel launch plus the TF r1.x executor's
     * dispatch cost (op scheduling, stream bookkeeping), which is why
     * light ops still take 10-20us each on real instances.
     */
    double kernelLaunchUs;
    /**
     * Saturation knee for the Conv2DBackpropFilter superlinear term:
     * effective time grows by (1 + inputBytes / filterGradKneeBytes),
     * producing the quadratic time-vs-size behaviour the paper reports
     * for that op (Sec. IV-B).
     */
    double filterGradKneeBytes;

    /** Effective throughput for @p category (calibrated). */
    const CategoryThroughput &
    throughput(graph::CostCategory category) const;

    /// Effective throughputs indexed by CostCategory. Internal layout;
    /// use throughput().
    CategoryThroughput perCategory[13];
};

/** Returns the spec for @p model. */
const GpuSpec &gpuSpec(GpuModel model);

/**
 * Largest GPU count (instance size, data-parallel width) a file may
 * name; every loader rejects a larger one.
 */
constexpr int kMaxGpus = 1 << 20;

/** All four GPU models, in the paper's P3, P2, G4, G3 order. */
const std::vector<GpuModel> &allGpuModels();

/** Short name, e.g. "V100". */
std::string gpuModelName(GpuModel model);

/** AWS family name, e.g. "P3". */
std::string gpuFamilyName(GpuModel model);

/**
 * Parses either the silicon name ("V100") or family ("P3").
 *
 * @param name Case-insensitive model or family name.
 * @param out  Receives the parsed model.
 * @return true on success.
 */
bool gpuModelFromName(const std::string &name, GpuModel &out);

} // namespace hw
} // namespace ceer

#endif // CEER_HW_GPU_SPEC_H

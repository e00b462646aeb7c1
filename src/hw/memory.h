/**
 * @file
 * GPU training-memory footprint estimation.
 *
 * The paper lists each GPU's memory (16 GB V100/T4, 12 GB K80, 8 GB
 * M60) but never checks whether a CNN fits; a practitioner's
 * recommender must. The estimate follows the standard accounting for
 * data-parallel SGD training:
 *
 *   params + gradients + optimizer slot  (3x parameter bytes)
 * + retained forward activations         (outputs of non-gradient GPU
 *                                         ops, kept for the backward
 *                                         pass)
 * + framework/cuDNN workspace            (fixed reserve)
 *
 * Activations scale with the per-GPU batch; under data parallelism each
 * replica holds its own copy, so the estimate is per GPU.
 */

#ifndef CEER_HW_MEMORY_H
#define CEER_HW_MEMORY_H

#include "graph/graph.h"
#include "hw/gpu_spec.h"

namespace ceer {
namespace hw {

/** Components of the per-GPU memory estimate, in bytes. */
struct MemoryEstimate
{
    double paramBytes = 0.0;      ///< Weights.
    double gradientBytes = 0.0;   ///< Weight gradients.
    double optimizerBytes = 0.0;  ///< Optimizer slots (0-2x params).
    double activationBytes = 0.0; ///< Retained forward activations.
    double workspaceBytes = 0.0;  ///< cuDNN/framework reserve.

    /** Total footprint. */
    double
    totalBytes() const
    {
        return paramBytes + gradientBytes + optimizerBytes +
               activationBytes + workspaceBytes;
    }

    /** Total footprint in GB (powers of 1000, as GPU specs quote). */
    double totalGB() const { return totalBytes() / 1e9; }
};

/**
 * Estimates the per-GPU training footprint of @p g (built at the
 * per-GPU batch size).
 */
MemoryEstimate estimateTrainingMemory(const graph::Graph &g);

/**
 * True when a training footprint of @p estimate fits in @p gpu's
 * memory with a safety margin. One estimate serves every GPU.
 *
 * @param estimate Per-GPU footprint (estimateTrainingMemory).
 * @param gpu      Target GPU model.
 * @param margin   Fraction of device memory kept free (default 5%).
 */
bool fitsInGpuMemory(const MemoryEstimate &estimate, GpuModel gpu,
                     double margin = 0.05);

} // namespace hw
} // namespace ceer

#endif // CEER_HW_MEMORY_H

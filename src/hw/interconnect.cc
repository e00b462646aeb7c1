#include "hw/interconnect.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/logging.h"
#include "util/random.h"

namespace ceer {
namespace hw {

namespace {

// Calibrated so that (a) data-parallel training-time reductions for
// Inception-v1 average ~36%/47%/54% at 2/3/4 GPUs across families
// (paper Fig. 6) — dominated by the constant sync-barrier term, since
// Inception-v1 has only 6.6M parameters; (b) the k=1 overhead is a
// 5-30% effect whose omission hurts AlexNet worst, ~30% on P3 (paper
// Sec. IV-A); and (c) the absolute multi-GPU sync cost is nearly
// family-independent (PCIe-era TF all-reduce), which compresses P3's
// end-to-end advantage to the paper's ~3.6x over P2 at 4 GPUs
// (Fig. 8) and makes G4 the typical cost winner despite P3's per-op
// dominance.
const InterconnectSpec kP3 = {12.0, 16.0, 5.0, 150.0, 15e3, 1.0, 1.1};
const InterconnectSpec kG4 = {8.0, 7.3, 3.25, 200.0, 24e3, 1.0, 1.1};
const InterconnectSpec kG3 = {8.0, 5.5, 3.0, 250.0, 27e3, 1.0, 1.0};
const InterconnectSpec kP2 = {6.0, 4.1, 2.7, 300.0, 30e3, 1.0, 0.9};

} // namespace

const InterconnectSpec &
interconnectSpec(GpuModel model)
{
    switch (model) {
      case GpuModel::V100: return kP3;
      case GpuModel::T4:   return kG4;
      case GpuModel::M60:  return kG3;
      case GpuModel::K80:  return kP2;
    }
    util::panic("interconnectSpec: unknown GpuModel");
}

double
commOverheadUs(GpuModel model, int num_gpus, double param_bytes,
               double input_bytes, int gpus_per_host)
{
    if (num_gpus < 1)
        util::panic("commOverheadUs: num_gpus must be >= 1");
    if (gpus_per_host < 1)
        util::panic("commOverheadUs: gpus_per_host must be >= 1");
    const InterconnectSpec &spec = interconnectSpec(model);
    const int hosts = (num_gpus + gpus_per_host - 1) / gpus_per_host;

    double overhead = spec.baseLatencyUs +
                      input_bytes / (spec.pcieGbps * 1e3) +
                      param_bytes / (spec.stagingGbps * 1e3);
    if (num_gpus >= 2) {
        const double k = static_cast<double>(num_gpus);
        const double ring_traffic = 2.0 * (k - 1.0) / k;
        // A multi-host ring is throttled by the NIC on the cross-host
        // hops, and every extra host adds a barrier round-trip.
        const double sync_gbps =
            hosts > 1 ? std::min(spec.syncGbps, spec.networkGbps)
                      : spec.syncGbps;
        const double sync_lat =
            spec.syncLatencyUs * static_cast<double>(hosts);
        overhead += (sync_lat + param_bytes / (sync_gbps * 1e3)) *
                    ring_traffic *
                    (1.0 + spec.stragglerFactor * (k - 1.0));
    }

    // Deterministic per-(CNN, GPU, k) wobble: real models deviate from
    // the pure params-linear trend (gradient tensor counts, variable
    // layouts), which is why the paper's comm regressions have R^2 of
    // 0.88-0.98 rather than 1.0.
    std::uint64_t key = 0x9E3779B97F4A7C15ull;
    key ^= static_cast<std::uint64_t>(param_bytes) *
           0xC2B2AE3D27D4EB4Full;
    key ^= static_cast<std::uint64_t>(model) * 0x165667B19E3779F9ull;
    key ^= static_cast<std::uint64_t>(num_gpus) * 0xFF51AFD7ED558CCDull;
    const double u =
        static_cast<double>(util::splitMix64(key) >> 11) * 0x1.0p-53;
    return overhead * (1.0 + 0.10 * (2.0 * u - 1.0));
}

double
sampleCommOverheadUs(GpuModel model, int num_gpus, double param_bytes,
                     double input_bytes, std::uint64_t seed,
                     std::int64_t iteration, int gpus_per_host)
{
    // Tag keeps the comm lane disjoint from the simulator's per-node
    // GPU/CPU sample keys derived from the same base seed.
    constexpr std::uint64_t kCommLane = 0x434F4D4Dull; // "COMM"
    const std::uint64_t key =
        util::hashMix(util::hashMix(seed, kCommLane),
                      static_cast<std::uint64_t>(iteration));
    return commOverheadUs(model, num_gpus, param_bytes, input_bytes,
                          gpus_per_host) *
           std::exp(0.06 * util::normalFromKey(key));
}

} // namespace hw
} // namespace ceer

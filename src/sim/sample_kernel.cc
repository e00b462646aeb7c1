#include "sim/sample_kernel.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

// The hot loops are multiversioned via the shared macro; this TU
// is compiled with -ffp-contract=off (see CMakeLists.txt) so no clone
// fuses into FMA and every clone returns bit-identical doubles —
// sampling stays deterministic across hosts, not just across thread
// counts.
#include "util/target_clones.h"

namespace ceer {
namespace sim {
namespace kernel {

namespace {

/**
 * Finishes @p m gathered tail draws in place: on entry z[j] holds
 * log(min(p[j], 1 - p[j])), on return Acklam's tail quantile of p[j].
 * The same operations in the same order as util::inverseNormalCdf's
 * tail branch, so every clone returns its bits; only the log is left
 * to the caller, because a vector log would not.
 */
CEER_VECTOR_CLONES void
finishTail(const double *p, double *z, std::size_t m)
{
    for (std::size_t j = 0; j < m; ++j) {
        const double q =
            util::inverseNormalCdfTailRational(std::sqrt(-2.0 * z[j]));
        z[j] = p[j] < 0.5 ? q : -q;
    }
}

} // namespace

CEER_VECTOR_CLONES void
normalBlock(std::uint64_t key, std::size_t slot0, std::size_t n,
            double *z)
{
    // Straight-line passes so each loop autovectorizes on its own:
    // integer hashing, then the branch-free central quantile
    // polynomial over *every* element, then a flag per element that
    // says whether its uniform fell in a tail (~5% do). Pass 2
    // evaluates the central rational even for tail inputs; near the
    // branch point the denominator stays finite and IEEE arithmetic
    // produces an (unused) finite garbage value that the tail pass
    // overwrites.
    std::array<double, kBlock> u;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t bits = util::hashMix(
            key, static_cast<std::uint64_t>(slot0 + i));
        u[i] = util::uniformFromBits(bits);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double q = u[i] - 0.5;
        z[i] = util::inverseNormalCdfCentral(q, q * q);
    }
    // The bitwise | keeps the loop free of branches, so it vectorizes.
    // Zero-initialized, so the bytes that pad n up to whole 8-byte
    // words read as "not a tail".
    alignas(8) std::array<std::uint8_t, kBlock> flag{};
    for (std::size_t i = 0; i < n; ++i)
        flag[i] = (u[i] < util::kInverseNormalCdfLow) |
                  (u[i] > 1.0 - util::kInverseNormalCdfLow);
    const std::size_t padded = (n + 7) & ~std::size_t{7};

    // Tail pass: pack the flags into 64-bit masks (the multiply moves
    // byte j's low bit to bit 56 + j), list the set bits, then gather
    // those draws, take their logs with scalar libm, finish them in
    // one batch and scatter the results back.
    std::array<std::uint16_t, kBlock> tail;
    std::size_t m = 0;
    for (std::size_t base = 0; base < padded; base += 64) {
        std::uint64_t mask = 0;
        const std::size_t end = std::min(padded, base + 64);
        for (std::size_t i = base; i < end; i += 8) {
            std::uint64_t word;
            std::memcpy(&word, &flag[i], sizeof word);
            mask |= ((word * 0x0102040810204080ull) >> 56) << (i - base);
        }
        for (; mask != 0; mask &= mask - 1)
            tail[m++] =
                static_cast<std::uint16_t>(base + std::countr_zero(mask));
    }
    if (m == 0)
        return;
    std::array<double, kBlock> p, zt;
    for (std::size_t j = 0; j < m; ++j) {
        p[j] = u[tail[j]];
        zt[j] = std::log(p[j] < 0.5 ? p[j] : 1.0 - p[j]);
    }
    finishTail(p.data(), zt.data(), m);
    for (std::size_t j = 0; j < m; ++j)
        z[tail[j]] = zt[j];
}

CEER_VECTOR_CLONES double
lognormalAccumulate(const double *base, const double *sigma,
                    const double *z, std::size_t n, double *times)
{
    // Two passes: the multiply-exp pass is straight-line arithmetic
    // the compiler vectorizes freely; the left-to-right sum stays its
    // own scalar loop so the accumulation order is fixed no matter
    // what vector width the first pass compiled to.
    std::array<double, kBlock> buf; // n <= kBlock (gpuLaneUs chunks)
    double *out = times ? times : buf.data();
    for (std::size_t i = 0; i < n; ++i)
        out[i] = base[i] * fastExp(sigma[i] * z[i]);
    // Four striped accumulators break the serial add dependence; the
    // combination order is still fixed, so results stay deterministic.
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        s0 += out[i];
        s1 += out[i + 1];
        s2 += out[i + 2];
        s3 += out[i + 3];
    }
    for (; i < n; ++i)
        s0 += out[i];
    return (s0 + s1) + (s2 + s3);
}

double
gpuLaneUs(std::uint64_t stream_key, const double *base,
          const double *sigma, std::size_t n, double *scratch,
          double *times)
{
    const std::uint64_t lane_key = util::hashMix(stream_key, kGpuLane);
    double sum = 0.0;
    for (std::size_t start = 0; start < n; start += kBlock) {
        const std::size_t len = std::min(kBlock, n - start);
        normalBlock(lane_key, start, len, scratch);
        sum += lognormalAccumulate(base + start, sigma + start, scratch,
                                   len, times ? times + start : nullptr);
    }
    return sum;
}

double
cpuLaneUs(std::uint64_t stream_key, const double *mean, std::size_t n,
          double *times)
{
    // CPU ops are heavy-tailed (gamma, CV = 1/sqrt(shape) ~= 0.6):
    // host kernels contend with the input pipeline and the OS, so
    // they are far noisier than heavy GPU kernels (paper Sec. III-C).
    // They are also rare — a few slots per graph — so each draw seeds
    // a throwaway Rng from its sample key and walks Marsaglia-Tsang.
    // Still a pure function of (stream key, slot).
    constexpr double kShape = 2.78;
    const std::uint64_t lane_key = util::hashMix(stream_key, kCpuLane);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        util::Rng rng(
            util::hashMix(lane_key, static_cast<std::uint64_t>(i)));
        const double t = mean[i] * rng.gamma(kShape, 1.0 / kShape);
        if (times)
            times[i] = t;
        sum += t;
    }
    return sum;
}

} // namespace kernel
} // namespace sim
} // namespace ceer

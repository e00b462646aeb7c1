/**
 * @file
 * Tests for the batched stateless sampling kernel: fastExp accuracy,
 * counter-based normal generation (purity, distribution, agreement
 * with the scalar inverse-CDF path), and block/chunk equivalences of
 * the lane accumulators.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sample_kernel.h"
#include "util/stats.h"

namespace ceer {
namespace sim {
namespace kernel {
namespace {

std::uint64_t
bitsOf(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

TEST(FastExpTest, MatchesStdExpOnTheSamplingRange)
{
    // The simulator only ever evaluates |sigma * z| <= ~4, but hold
    // the documented accuracy bound over a much wider range.
    double worst = 0.0;
    for (double x = -30.0; x <= 30.0; x += 1.0 / 512.0) {
        const double want = std::exp(x);
        const double got = fastExp(x);
        worst = std::max(worst, std::abs(got - want) / want);
    }
    EXPECT_LT(worst, 1e-13);
}

TEST(FastExpTest, ClampSaturatesInsteadOfCorrupting)
{
    // Far outside the clamp the result must stay finite and ordered,
    // not wrap the exponent bit arithmetic into garbage.
    EXPECT_TRUE(std::isfinite(fastExp(1e6)));
    EXPECT_TRUE(std::isfinite(fastExp(-1e6)));
    EXPECT_DOUBLE_EQ(fastExp(1e6), fastExp(700.0));
    EXPECT_DOUBLE_EQ(fastExp(-1e6), fastExp(-700.0));
    EXPECT_GT(fastExp(700.0), 1e300);
    EXPECT_GT(fastExp(-700.0), 0.0);
}

TEST(NormalBlockTest, MatchesScalarInverseCdfPath)
{
    // The blocked generator (including its vectorized clones) must
    // agree bit for bit with the scalar counter-based definition
    // inverseNormalCdf(uniform(hashMix(key, slot))) at every block
    // length and offset. The tail pass packs per-element flags into
    // 64-bit masks and scatters finished tail draws back by index, so
    // tails at a mask's first and last bit and in a partial last word
    // must all land where they belong, and nothing past n may be
    // written.
    constexpr double kSentinel = 12345.0;
    const std::size_t slot0s[] = {0, 1, 63, 1000};
    std::vector<double> want(kBlock), z(kBlock);
    std::vector<bool> tail(kBlock), tail_at_last(kBlock + 1, false);
    bool tail_at_0 = false, tail_at_63 = false, tail_at_64 = false;
    for (std::uint64_t k = 0; k < 64; ++k) {
        const std::uint64_t key = util::hashMix(0xFEEDFACEull, k);
        for (std::size_t slot0 : slot0s) {
            for (std::size_t i = 0; i < kBlock; ++i) {
                const double u = util::uniformFromBits(util::hashMix(
                    key, static_cast<std::uint64_t>(slot0 + i)));
                want[i] = util::inverseNormalCdf(u);
                tail[i] = u < util::kInverseNormalCdfLow ||
                          u > 1.0 - util::kInverseNormalCdfLow;
            }
            tail_at_0 = tail_at_0 || tail[0];
            tail_at_63 = tail_at_63 || tail[63];
            tail_at_64 = tail_at_64 || tail[64];
            for (std::size_t n = 1; n <= kBlock; ++n) {
                const std::size_t guard = std::min(kBlock, n + 64);
                std::fill(z.begin() + n, z.begin() + guard, kSentinel);
                normalBlock(key, slot0, n, z.data());
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(bitsOf(z[i]), bitsOf(want[i]))
                        << "key " << k << " slot0 " << slot0 << " n "
                        << n << " position " << i;
                for (std::size_t i = n; i < guard; ++i)
                    ASSERT_EQ(z[i], kSentinel)
                        << "key " << k << " slot0 " << slot0 << " n "
                        << n << " wrote position " << i;
                tail_at_last[n] = tail_at_last[n] || tail[n - 1];
            }
        }
    }
    // The fixed keys put a tail draw at every edge the mask walk has.
    EXPECT_TRUE(tail_at_0);
    EXPECT_TRUE(tail_at_63);
    EXPECT_TRUE(tail_at_64);
    for (std::size_t n = 1; n <= kBlock; ++n)
        EXPECT_TRUE(tail_at_last[n]) << "no tail draw at n - 1, n " << n;
}

TEST(NormalBlockTest, SubRangesRegenerateIndependently)
{
    // Slot addressing is absolute, so any sub-range can be recomputed
    // without generating its prefix — the property that lets lanes be
    // chunked and iterations run on any thread.
    const std::uint64_t key = 42;
    std::vector<double> all(256), part(64);
    normalBlock(key, 0, 256, all.data());
    normalBlock(key, 100, 64, part.data());
    for (std::size_t i = 0; i < 64; ++i)
        ASSERT_EQ(bitsOf(part[i]), bitsOf(all[100 + i]));
}

TEST(NormalBlockTest, MomentsMatchStandardNormal)
{
    util::RunningStats stats;
    std::vector<double> z(kBlock);
    for (std::uint64_t key = 0; key < 100; ++key) {
        normalBlock(util::hashMix(7, key), 0, kBlock, z.data());
        for (double v : z)
            stats.add(v);
    }
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.variance(), 1.0, 0.03);
    // Tail draws must actually occur (the fix-up pass is exercised).
    EXPECT_LT(stats.min(), -2.5);
    EXPECT_GT(stats.max(), 2.5);
}

TEST(LognormalAccumulateTest, MatchesElementwiseProducts)
{
    const std::size_t n = 37;
    std::vector<double> base(n), sigma(n), z(n), times(n);
    for (std::size_t i = 0; i < n; ++i) {
        base[i] = 5.0 + static_cast<double>(i);
        sigma[i] = 0.02 + 0.001 * static_cast<double>(i);
        z[i] = std::sin(static_cast<double>(i)) * 2.0;
    }
    const double sum =
        lognormalAccumulate(base.data(), sigma.data(), z.data(), n,
                            times.data());
    double expected = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bitsOf(times[i]),
                  bitsOf(base[i] * fastExp(sigma[i] * z[i])));
        expected += times[i];
    }
    // The kernel sums in a striped order; values agree to rounding.
    EXPECT_NEAR(sum, expected, expected * 1e-12);
}

TEST(GpuLaneTest, ChunkingIsInvisible)
{
    // A lane longer than one block must equal the concatenation of its
    // blocks: chunk boundaries may not change any sample.
    const std::size_t n = kBlock + 173;
    std::vector<double> base(n, 3.0), sigma(n, 0.05);
    std::vector<double> scratch(kBlock), times(n);
    const std::uint64_t stream_key = replicaStreamKey(11, 5, 0);
    const double sum = gpuLaneUs(stream_key, base.data(), sigma.data(),
                                 n, scratch.data(), times.data());

    const std::uint64_t lane_key = util::hashMix(stream_key, kGpuLane);
    std::vector<double> z(kBlock);
    double expected = 0.0;
    std::size_t checked = 0;
    for (std::size_t start = 0; start < n; start += kBlock) {
        const std::size_t len = std::min(kBlock, n - start);
        normalBlock(lane_key, start, len, z.data());
        for (std::size_t i = 0; i < len; ++i) {
            const double t = base[start + i] *
                             fastExp(sigma[start + i] * z[i]);
            ASSERT_EQ(bitsOf(times[start + i]), bitsOf(t));
            expected += t;
            ++checked;
        }
    }
    EXPECT_EQ(checked, n);
    EXPECT_NEAR(sum, expected, expected * 1e-12);
}

TEST(GpuLaneTest, ObservedSumMatchesUnobservedSum)
{
    // The observer path stores each product in times before summing;
    // the unobserved path sums the same products from a stack buffer.
    // Both must return the same bits, or an observed run and an
    // unobserved run of one iteration would disagree.
    const std::size_t n = 3 * kBlock + 77;
    std::vector<double> base(n), sigma(n), scratch(kBlock), times(n);
    for (std::size_t i = 0; i < n; ++i) {
        base[i] = 1.0 + 0.37 * static_cast<double>(i % 211);
        sigma[i] = 0.01 + 0.0005 * static_cast<double>(i % 97);
    }
    for (std::int64_t iteration = 0; iteration < 16; ++iteration) {
        const std::uint64_t stream_key =
            replicaStreamKey(21, iteration, 0);
        const double observed =
            gpuLaneUs(stream_key, base.data(), sigma.data(), n,
                      scratch.data(), times.data());
        const double unobserved =
            gpuLaneUs(stream_key, base.data(), sigma.data(), n,
                      scratch.data(), nullptr);
        ASSERT_EQ(bitsOf(observed), bitsOf(unobserved))
            << "iteration " << iteration;
    }
}

TEST(GpuLaneTest, LognormalNoiseHasUnitMedian)
{
    // base * exp(sigma * z) with a symmetric z: half the draws land
    // above the base time and half below it.
    const double base = 1.0, sigma = 0.3;
    double scratch[kBlock];
    std::vector<double> values(20001);
    for (std::size_t i = 0; i < values.size(); ++i)
        gpuLaneUs(replicaStreamKey(9, static_cast<std::int64_t>(i), 0),
                  &base, &sigma, 1, scratch, &values[i]);
    EXPECT_NEAR(util::median(values), 1.0, 0.02);
}

TEST(CpuLaneTest, DeterministicAndGammaDistributed)
{
    const std::size_t n = 4;
    std::vector<double> mean(n, 100.0), times_a(n), times_b(n);
    const std::uint64_t stream_key = replicaStreamKey(3, 9, 1);
    const double a =
        cpuLaneUs(stream_key, mean.data(), n, times_a.data());
    const double b =
        cpuLaneUs(stream_key, mean.data(), n, times_b.data());
    EXPECT_EQ(bitsOf(a), bitsOf(b));
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(bitsOf(times_a[i]), bitsOf(times_b[i]));

    // Gamma(k, 1/k) has mean 1, so lane means track the slot means.
    util::RunningStats stats;
    for (std::uint64_t iter = 0; iter < 4000; ++iter)
        stats.add(cpuLaneUs(replicaStreamKey(3, iter, 1), mean.data(),
                            n, nullptr));
    EXPECT_NEAR(stats.mean(), 400.0, 10.0);
}

TEST(ReplicaStreamKeyTest, DistinctAcrossAllAxes)
{
    EXPECT_NE(replicaStreamKey(1, 0, 0), replicaStreamKey(2, 0, 0));
    EXPECT_NE(replicaStreamKey(1, 0, 0), replicaStreamKey(1, 1, 0));
    EXPECT_NE(replicaStreamKey(1, 0, 0), replicaStreamKey(1, 0, 1));
    EXPECT_EQ(replicaStreamKey(1, 5, 3), replicaStreamKey(1, 5, 3));
}

} // namespace
} // namespace kernel
} // namespace sim
} // namespace ceer

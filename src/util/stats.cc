#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/random.h"

namespace ceer {
namespace util {

void
RunningStats::merge(const RunningStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStats::normalizedStddev() const
{
    if (count_ == 0 || mean_ == 0.0)
        return 0.0;
    return stddev() / std::abs(mean_);
}

RunningStats
RunningStats::fromState(std::size_t count, double mean, double m2,
                        double min, double max)
{
    RunningStats stats;
    if (count == 0)
        return stats;
    stats.count_ = count;
    stats.mean_ = mean;
    stats.m2_ = m2;
    stats.min_ = min;
    stats.max_ = max;
    return stats;
}

double
RunningStats::min() const
{
    return count_ ? min_ : std::numeric_limits<double>::infinity();
}

double
RunningStats::max() const
{
    return count_ ? max_ : -std::numeric_limits<double>::infinity();
}

namespace {

/**
 * The reservoir's replacement rule, shared by SampleReservoir::add()
 * and ReservoirSchedule: advances @p state and returns the slot the
 * offer that brings the count to @p offered replaces, which is below
 * the capacity with probability capacity / offered.
 */
std::uint64_t
replacementDraw(std::uint64_t &state, std::uint64_t offered)
{
    return splitMix64(state) % offered;
}

} // namespace

SampleReservoir::SampleReservoir(std::size_t capacity)
    : capacity_(capacity), rngState_(kReservoirSeed)
{
    if (capacity_ == 0)
        panic("SampleReservoir capacity must be positive");
    samples_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void
SampleReservoir::add(double x)
{
    // Classic reservoir sampling: fill, then replace a random slot with
    // probability capacity / offered (a draw past the last slot drops
    // the offer).
    offerAt(samples_.size() < capacity_
                ? samples_.size()
                : replacementDraw(rngState_, offered_ + 1),
            x);
}

SampleReservoir
SampleReservoir::fromState(std::size_t capacity, std::size_t offered,
                           std::uint64_t rng_state,
                           std::vector<double> samples)
{
    SampleReservoir reservoir(capacity); // panics on capacity == 0
    const bool consistent = offered <= capacity
                                ? samples.size() == offered
                                : samples.size() == capacity;
    if (!consistent)
        panic("SampleReservoir::fromState: inconsistent state");
    reservoir.offered_ = offered;
    reservoir.rngState_ = rng_state;
    reservoir.samples_ = std::move(samples);
    return reservoir;
}

ReservoirSchedule::ReservoirSchedule(std::size_t capacity,
                                     std::size_t max_offered)
    : capacity_(capacity), slots_(max_offered)
{
    if (capacity_ == 0 || capacity_ > 255)
        panic("ReservoirSchedule capacity must be in [1, 255]");
    std::uint64_t state = kReservoirSeed;
    for (std::size_t i = 0; i < max_offered; ++i) {
        const std::uint64_t offered = i + 1;
        const std::uint64_t pick = offered <= capacity_
                                       ? i
                                       : replacementDraw(state, offered);
        slots_[i] = static_cast<std::uint8_t>(
            std::min<std::uint64_t>(pick, capacity_));
    }
}

namespace {

/**
 * Maps a double to a 64-bit key whose unsigned order is the double's
 * order: flip every bit of a negative value, only the sign bit of a
 * positive one.
 */
std::uint64_t
orderKey(double x)
{
    const auto bits = std::bit_cast<std::uint64_t>(x);
    return bits ^ ((0 - (bits >> 63)) | (std::uint64_t{1} << 63));
}

/** Inverse of orderKey(). */
double
fromOrderKey(std::uint64_t key)
{
    return std::bit_cast<double>(
        key ^ ((0 - (~key >> 63)) | (std::uint64_t{1} << 63)));
}

/** Key of the rank-th smallest value, and how many values share it. */
struct RankKey
{
    std::uint64_t key = 0;
    std::size_t below = 0; ///< Values with a smaller key.
    std::size_t equal = 0; ///< Values with this key.
};

/** Digit width of the radix select: a 16 KiB stack histogram. */
constexpr int kDigitBits = 11;

/**
 * Most-significant-digit radix select of the @p rank-th smallest key
 * (0-based) over @p parts. Each pass histograms the next digit of the
 * keys that share the digits fixed so far and fixes the digit whose
 * bucket holds the rank; it stops early once that bucket holds a
 * single value. Panics on a NaN value (checked in the first pass).
 */
RankKey
selectRank(std::span<const std::span<const double>> parts, std::size_t rank)
{
    RankKey out;
    std::uint64_t prefix = 0; // fixed high bits, in place
    std::uint64_t fixed_mask = 0;
    for (int fixed = 0; fixed < 64;) {
        const int bits = std::min(kDigitBits, 64 - fixed);
        const int shift = 64 - fixed - bits;
        const std::uint64_t digit_mask = (std::uint64_t{1} << bits) - 1;
        std::size_t histogram[std::size_t{1} << kDigitBits] = {};
        for (std::span<const double> part : parts) {
            for (double x : part) {
                if (fixed == 0 && std::isnan(x))
                    panic("percentile: NaN value");
                const std::uint64_t key = orderKey(x);
                if ((key & fixed_mask) == prefix)
                    ++histogram[(key >> shift) & digit_mask];
            }
        }
        std::uint64_t digit = 0;
        while (out.below + histogram[digit] <= rank)
            out.below += histogram[digit++];
        prefix |= digit << shift;
        fixed_mask |= digit_mask << shift;
        fixed += bits;
        out.equal = histogram[digit];
        if (out.equal == 1 && fixed < 64) {
            // One value carries this prefix: it is the answer.
            for (std::span<const double> part : parts)
                for (double x : part) {
                    const std::uint64_t key = orderKey(x);
                    if ((key & fixed_mask) == prefix)
                        out.key = key;
                }
            return out;
        }
    }
    out.key = prefix;
    return out;
}

} // namespace

double
percentile(std::span<const std::span<const double>> parts, double p)
{
    if (std::isnan(p))
        panic("percentile: NaN rank");
    std::size_t n = 0;
    for (std::span<const double> part : parts)
        n += part.size();
    if (n == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
    const RankKey lower = selectRank(parts, lo);
    const double lower_value = fromOrderKey(lower.key);
    if (lo == hi)
        return lower_value;
    // Rank hi is the next value up: the same key while it has copies
    // left, else the smallest key above it.
    std::uint64_t upper = lower.key;
    if (lower.below + lower.equal <= hi) {
        upper = ~std::uint64_t{0};
        for (std::span<const double> part : parts)
            for (double x : part) {
                const std::uint64_t key = orderKey(x);
                if (key > lower.key)
                    upper = std::min(upper, key);
            }
    }
    const double frac = rank - static_cast<double>(lo);
    return lower_value * (1.0 - frac) + fromOrderKey(upper) * frac;
}

double
median(std::span<const std::span<const double>> parts)
{
    return percentile(parts, 50.0);
}

double
percentile(const std::vector<double> &values, double p)
{
    const std::span<const double> part(values);
    return percentile(std::span(&part, 1), p);
}

double
median(const std::vector<double> &values)
{
    return percentile(values, 50.0);
}

std::vector<CdfPoint>
empiricalCdf(std::vector<double> values, std::size_t maxPoints)
{
    std::vector<CdfPoint> cdf;
    if (values.empty())
        return cdf;
    if (maxPoints < 2)
        maxPoints = 2;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    const std::size_t points = std::min(maxPoints, n);
    cdf.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        // Pick evenly spaced ranks, always including the last sample.
        const std::size_t idx =
            (points == 1) ? n - 1 : i * (n - 1) / (points - 1);
        cdf.push_back({values[idx],
                       static_cast<double>(idx + 1) /
                           static_cast<double>(n)});
    }
    return cdf;
}

double
rootMeanSquaredError(const std::vector<double> &observed,
                     const std::vector<double> &predicted)
{
    if (observed.size() != predicted.size())
        panic("RMSE: size mismatch between observed and predicted");
    if (observed.empty())
        return 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        const double err = predicted[i] - observed[i];
        total += err * err;
    }
    return std::sqrt(total / static_cast<double>(observed.size()));
}

namespace {

/** Fractional ranks of @p values (ties averaged), 1-based. */
std::vector<double>
fractionalRanks(const std::vector<double> &values)
{
    const std::size_t n = values.size();
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return values[a] < values[b];
              });
    std::vector<double> ranks(n, 0.0);
    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i;
        while (j + 1 < n && values[order[j + 1]] == values[order[i]])
            ++j;
        // Positions i..j (0-based) share the averaged 1-based rank.
        const double rank =
            (static_cast<double>(i) + static_cast<double>(j)) / 2.0 +
            1.0;
        for (std::size_t k = i; k <= j; ++k)
            ranks[order[k]] = rank;
        i = j + 1;
    }
    return ranks;
}

} // namespace

double
spearmanRankCorrelation(const std::vector<double> &a,
                        const std::vector<double> &b)
{
    if (a.size() != b.size())
        panic("spearman: size mismatch between samples");
    const std::size_t n = a.size();
    if (n < 2)
        return 0.0;
    const std::vector<double> ra = fractionalRanks(a);
    const std::vector<double> rb = fractionalRanks(b);
    double mean_a = 0.0, mean_b = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        mean_a += ra[i];
        mean_b += rb[i];
    }
    mean_a /= static_cast<double>(n);
    mean_b /= static_cast<double>(n);
    double cov = 0.0, var_a = 0.0, var_b = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double da = ra[i] - mean_a;
        const double db = rb[i] - mean_b;
        cov += da * db;
        var_a += da * da;
        var_b += db * db;
    }
    if (var_a == 0.0 || var_b == 0.0)
        return 0.0;
    return cov / std::sqrt(var_a * var_b);
}

} // namespace util
} // namespace ceer

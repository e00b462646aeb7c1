#include "util/stats.h"

#include <algorithm>
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

/// Replacement-RNG state of a default-constructed reservoir.
constexpr std::uint64_t kReservoirSeed = 0xA02BDBF7BB3C0A7ull;

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
    ++offered_;
    if (samples_.size() < capacity_) {
        samples_.push_back(x);
        return;
    }
    // Classic reservoir sampling: replace a random slot with probability
    // capacity / offered.
    const std::uint64_t pick = replacementDraw(rngState_, offered_);
    if (pick < capacity_)
        samples_[pick] = x;
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

void
SampleReservoir::assign(std::size_t offered, std::uint64_t rng_state,
                        std::span<const double> samples)
{
    if (samples.size() != std::min(offered, capacity_))
        panic("SampleReservoir::assign: inconsistent state");
    offered_ = offered;
    rngState_ = rng_state;
    samples_.assign(samples.begin(), samples.end());
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

std::uint64_t
ReservoirSchedule::rngState(std::size_t offered) const
{
    const std::size_t draws = offered > capacity_ ? offered - capacity_ : 0;
    return splitMix64Skip(kReservoirSeed, draws);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
    // Select the two closest ranks instead of sorting: after
    // nth_element, rank hi is the smallest value above position lo.
    const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(values.begin(), lo_it, values.end());
    if (lo == hi)
        return *lo_it;
    const double upper = *std::min_element(lo_it + 1, values.end());
    const double frac = rank - static_cast<double>(lo);
    return *lo_it * (1.0 - frac) + upper * frac;
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

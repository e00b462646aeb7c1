/**
 * @file
 * Streaming and batch statistics used throughout profiling and modeling.
 */

#ifndef CEER_UTIL_STATS_H
#define CEER_UTIL_STATS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/random.h"

namespace ceer {
namespace util {

/**
 * Numerically stable streaming moments (Welford's algorithm).
 *
 * Tracks count, mean, variance, min and max of a sample stream without
 * storing the samples.
 */
class RunningStats
{
  public:
    /** Adds one observation. */
    void add(double x);

    /** Merges another accumulator into this one (parallel Welford). */
    void merge(const RunningStats &other);

    /** Number of observations added so far. */
    std::size_t count() const { return count_; }

    /** Sample mean; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Unbiased sample variance; 0 with fewer than two observations. */
    double variance() const;

    /** Square root of variance(). */
    double stddev() const;

    /**
     * Standard deviation normalized by the mean (coefficient of
     * variation); 0 when the mean is 0.
     */
    double normalizedStddev() const;

    /** Smallest observation; +inf when empty. */
    double min() const;

    /** Largest observation; -inf when empty. */
    double max() const;

    /** Sum of all observations. */
    double sum() const { return mean_ * static_cast<double>(count_); }

    /**
     * Welford M2 accumulator (sum of squared deviations from the
     * mean); exposed so the CBF codecs can serialize the exact
     * internal state instead of a lossy (count, mean, stddev) triple.
     */
    double sumSquaredDeviations() const { return m2_; }

    /**
     * Reconstructs an accumulator from its exact internal state as
     * captured by count()/mean()/sumSquaredDeviations()/min()/max().
     * A zero count yields a default (empty) accumulator regardless of
     * the other arguments.
     */
    static RunningStats fromState(std::size_t count, double mean,
                                  double m2, double min, double max);

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

// Inline: the profiler calls this once per observed op execution.
inline void
RunningStats::add(double x)
{
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

class ReservoirSchedule;

/// Replacement-RNG state of a default-constructed SampleReservoir.
inline constexpr std::uint64_t kReservoirSeed = 0xA02BDBF7BB3C0A7ull;

/**
 * Bounded reservoir of samples for order statistics.
 *
 * Keeps at most @c capacity samples via reservoir sampling so that
 * median() and percentile() over samples() stay O(capacity)
 * regardless of how many observations were offered.
 * Deterministic given the insertion order.
 */
class SampleReservoir
{
  public:
    /** @param capacity Maximum number of retained samples (> 0). */
    explicit SampleReservoir(std::size_t capacity = 4096);

    /** Offers one observation to the reservoir. */
    void add(double x);

    /** Total observations offered (not just retained). */
    std::size_t offered() const { return offered_; }

    /** Maximum number of retained samples. */
    std::size_t capacity() const { return capacity_; }

    /**
     * Internal replacement-RNG state; exposed (with fromState) so the
     * CBF codecs restore a reservoir that continues the exact sample
     * stream the original would have produced.
     */
    std::uint64_t rngState() const { return rngState_; }

    /**
     * Reconstructs a reservoir from its exact internal state. Panics
     * on inconsistent state (capacity 0, more samples than capacity,
     * or a retained count that contradicts @p offered); binary loaders
     * validate before calling so corrupt files degrade to load errors
     * instead.
     */
    static SampleReservoir fromState(std::size_t capacity,
                                     std::size_t offered,
                                     std::uint64_t rng_state,
                                     std::vector<double> samples);

    /**
     * Offers one observation in place, replaying @p schedule instead of
     * drawing: it writes slot(offered() + 1) and leaves the RNG at
     * rngState(offered() + 1), so a default reservoir of the schedule's
     * capacity ends up exactly as add() would leave it. It allocates
     * nothing past the storage the constructor reserved. The schedule
     * must have this reservoir's capacity and cover the offer; the
     * caller checks both.
     */
    void replay(double x, const ReservoirSchedule &schedule);

    /** Currently retained samples (unsorted). */
    const std::vector<double> &samples() const { return samples_; }

  private:
    /**
     * Counts one offer and stores @p x at @p slot: past the retained
     * samples it is appended while there is room and dropped once
     * there is not. add() and replay() both end here.
     */
    void offerAt(std::size_t slot, double x);

    std::size_t capacity_;
    std::size_t offered_ = 0;
    std::uint64_t rngState_;
    std::vector<double> samples_;
};

/**
 * Precomputed slot sequence of a default-constructed reservoir.
 *
 * A default SampleReservoir starts its replacement RNG from a fixed
 * constant and advances it once per offer past capacity, so the slot
 * that offer number j writes depends only on (capacity, j), never on
 * the values offered. Drawing that sequence once lets any number of
 * equal-capacity reservoirs replay add() exactly, in place, through
 * SampleReservoir::replay(): offer j writes slot(j), and slot
 * capacity() marks a dropped offer.
 */
class ReservoirSchedule
{
  public:
    /**
     * Draws the slots of offers 1 .. @p max_offered.
     *
     * @param capacity    Reservoir capacity, in [1, 255].
     * @param max_offered Largest offer count the schedule covers.
     */
    ReservoirSchedule(std::size_t capacity, std::size_t max_offered);

    /** Capacity of the reservoirs this schedule replays. */
    std::size_t capacity() const { return capacity_; }

    /** Largest offer count covered. */
    std::size_t maxOffered() const { return slots_.size(); }

    /**
     * Slot written by offer number @p offered (1 <= @p offered <=
     * maxOffered()): offered - 1 while the reservoir fills, then the
     * replaced slot, or capacity() when the offer is dropped.
     */
    std::size_t slot(std::size_t offered) const
    {
        return slots_[offered - 1];
    }

    /** The replacement-RNG state add() reaches after @p offered offers. */
    std::uint64_t rngState(std::size_t offered) const
    {
        // One draw per offer past the capacity; each only adds a
        // constant to the state.
        return splitMix64Skip(kReservoirSeed,
                              offered > capacity_ ? offered - capacity_ : 0);
    }

  private:
    std::size_t capacity_;
    std::vector<std::uint8_t> slots_;
};

// Inline: the profiler replays once per observed op execution.
inline void
SampleReservoir::offerAt(std::size_t slot, double x)
{
    ++offered_;
    if (slot < samples_.size())
        samples_[slot] = x;
    else if (samples_.size() < capacity_)
        samples_.push_back(x);
}

inline void
SampleReservoir::replay(double x, const ReservoirSchedule &schedule)
{
    offerAt(schedule.slot(offered_ + 1), x);
    rngState_ = schedule.rngState(offered_);
}

/**
 * Returns the @p p percentile (0-100) of the values of @p parts taken
 * together, with linear interpolation between closest ranks; 0 when
 * they hold no value. The two ranks are found in place by a radix
 * select over order-preserving 64-bit keys: nothing is copied or
 * allocated, and the result is the one a sort of the concatenation
 * gives, bit for bit (-0.0 orders below +0.0). Panics when @p p or any
 * value is NaN.
 */
double percentile(std::span<const std::span<const double>> parts, double p);

/** percentile(@p parts, 50). */
double median(std::span<const std::span<const double>> parts);

/** percentile() of the one span @p values. */
double percentile(const std::vector<double> &values, double p);

/** median() of the one span @p values. */
double median(const std::vector<double> &values);

/** One point of an empirical CDF: P(X <= value) = cumulative. */
struct CdfPoint
{
    double value;      ///< Sample value.
    double cumulative; ///< Fraction of samples <= value, in (0, 1].
};

/**
 * Builds an empirical CDF from samples.
 *
 * @param values     Observations (copied and sorted).
 * @param maxPoints  Downsample to at most this many points (>= 2).
 */
std::vector<CdfPoint> empiricalCdf(std::vector<double> values,
                                   std::size_t maxPoints = 200);

/** Root-mean-squared error of predictions vs observations. */
double rootMeanSquaredError(const std::vector<double> &observed,
                            const std::vector<double> &predicted);

/**
 * Spearman rank correlation of two paired samples (Pearson correlation
 * of their fractional ranks; ties receive averaged ranks). Returns 0
 * when either side has fewer than two points or zero rank variance —
 * the coefficient is undefined there, and 0 ("no agreement signal") is
 * the conservative report for a ranking-quality metric.
 */
double spearmanRankCorrelation(const std::vector<double> &a,
                               const std::vector<double> &b);

} // namespace util
} // namespace ceer

#endif // CEER_UTIL_STATS_H

/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * The simulator has one noise model, and every draw in it is
 * counter-based: a pure function of a 64-bit key built with hashMix
 * (uniformFromKey / normalFromKey here, the batched sampling kernel in
 * sim/sample_kernel.h). No sample depends on execution order, which is
 * what lets the simulator batch its sampling kernel and fan iterations
 * out across threads while staying bit-deterministic.
 *
 * Rng, a stateful xoshiro256** stream (seeded via SplitMix64), serves
 * two callers that need a sequence rather than a single draw: the
 * kernel's CPU lane, which seeds one Rng per sample key and walks its
 * gamma rejection loop, and InstanceCatalog::syntheticFleet.
 */

#ifndef CEER_UTIL_RANDOM_H
#define CEER_UTIL_RANDOM_H

#include <cstdint>
#include <string>

namespace ceer {
namespace util {

/// Increment SplitMix64 adds to its state on every step.
constexpr std::uint64_t kSplitMix64Gamma = 0x9E3779B97F4A7C15ull;

/**
 * SplitMix64 step; used for seeding and for cheap stateless hashing of
 * (seed, stream) pairs into independent generator states.
 *
 * @param state In/out 64-bit state, advanced by one step.
 * @return Next 64-bit output.
 */
inline std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += kSplitMix64Gamma);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * The state @p steps calls of splitMix64() leave behind, starting from
 * @p state, in O(1): each step only adds kSplitMix64Gamma.
 */
inline std::uint64_t
splitMix64Skip(std::uint64_t state, std::uint64_t steps)
{
    return state + steps * kSplitMix64Gamma;
}

/**
 * Mixes @p value into @p seed with a SplitMix64 avalanche step.
 *
 * Order-sensitive and collision-resistant for our purposes; used to
 * derive independent per-run seeds from structured keys such as
 * (base seed, model name, GPU, replica count) without any dependence
 * on iteration order. The output is also the unit of counter-based
 * sampling: feed it to uniformFromBits/normalFromKey for a draw that
 * is a pure function of the key.
 */
inline std::uint64_t
hashMix(std::uint64_t seed, std::uint64_t value)
{
    std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ull + value);
    return splitMix64(state);
}

/** Mixes a string into @p seed (length-prefixed, byte by byte). */
std::uint64_t hashMix(std::uint64_t seed, const std::string &text);

/**
 * Maps 64 random bits to a double uniformly distributed in (0, 1).
 *
 * The open interval (never exactly 0 or 1) makes the result safe as a
 * probability for inverseNormalCdf and as a log() argument.
 */
inline double
uniformFromBits(std::uint64_t bits)
{
    // 53 high bits, centered on the half-ulp so 0 and 1 are excluded.
    return (static_cast<double>(bits >> 11) + 0.5) * 0x1.0p-53;
}

/** Uniform double in (0, 1) as a pure function of @p key. */
inline double
uniformFromKey(std::uint64_t key)
{
    return uniformFromBits(hashMix(key, 0x5EEDED));
}

/// Branch point of the inverse-normal-CDF approximation: probabilities
/// in [kInverseNormalCdfLow, 1 - kInverseNormalCdfLow] (~95% of
/// uniform draws) take the polynomial-only central branch.
constexpr double kInverseNormalCdfLow = 0.02425;

/**
 * Central branch of Acklam's inverse-normal-CDF approximation.
 *
 * Valid for q = p - 0.5 with |q| <= 0.5 - kInverseNormalCdfLow and
 * r = q * q. Pure rational-polynomial arithmetic — no transcendental
 * calls, no branches — so block evaluations autovectorize; this is
 * what makes counter-based normal generation cheaper than a stateful
 * Box-Muller walk.
 */
inline double
inverseNormalCdfCentral(double q, double r)
{
    return (((((-3.969683028665376e+01 * r + 2.209460984245205e+02) *
                   r -
               2.759285104469687e+02) *
                  r +
              1.383577518672690e+02) *
                 r -
             3.066479806614716e+01) *
                r +
            2.506628277459239e+00) *
           q /
           (((((-5.447609879822406e+01 * r + 1.615858368580409e+02) *
                   r -
               1.556989798598866e+02) *
                  r +
              6.680131188771972e+01) *
                 r -
             1.328068155288572e+01) *
                r +
            1.0);
}

/**
 * Rational part of Acklam's tail branch, taken for
 * p < kInverseNormalCdfLow or p > 1 - kInverseNormalCdfLow (~5% of
 * uniform draws): the lower-tail quantile for
 * q = sqrt(-2 log(min(p, 1 - p))); negate it when p > 0.5. Pure
 * arithmetic like the central branch, so the sampling kernel can
 * finish a batch of tail draws in one vector loop once their logs are
 * known.
 */
inline double
inverseNormalCdfTailRational(double q)
{
    constexpr double c[] = {
        -7.784894002430293e-03, -3.223964580411365e-01,
        -2.400758277161838e+00, -2.549732539343734e+00,
        4.374664141464968e+00,  2.938163982698783e+00};
    constexpr double d[] = {
        7.784695709041462e-03, 3.224671290700398e-01,
        2.445134137142996e+00, 3.754408661907416e+00};
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) *
                q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

/**
 * Inverse of the standard normal CDF (quantile function).
 *
 * Acklam's rational approximation: relative error < 1.2e-9 over all of
 * (0, 1), which is far below the sampling noise of any study in this
 * repo. Panics outside (0, 1).
 */
double inverseNormalCdf(double p);

/** Standard normal deviate as a pure function of @p key. */
inline double
normalFromKey(std::uint64_t key)
{
    return inverseNormalCdf(uniformFromBits(hashMix(key, 0x90125)));
}

/**
 * xoshiro256** pseudo-random generator with the distributions its
 * callers draw from.
 *
 * Not thread-safe; each caller owns its own Rng.
 *
 * Sequence coupling: normal() computes Box-Muller deviates in pairs
 * and caches the second one across calls (see normal() below), so the
 * mapping from "n-th call of a given distribution" to underlying
 * xoshiro outputs depends on the full call history. Two Rngs with the
 * same seed only stay in lockstep if they receive the *same sequence*
 * of method calls; interleaving an extra draw shifts every later value
 * of the other distributions. Pinned by
 * RngTest.NormalCachingCouplesTheSequence.
 */
class Rng
{
  public:
    /** Constructs a generator from a 64-bit seed (SplitMix64 expanded). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Returns the next raw 64-bit output. */
    std::uint64_t next();

    /** Returns a double uniformly distributed in [0, 1). */
    double uniform();

    /** Returns a double uniformly distributed in [lo, hi). */
    double uniform(double lo, double hi);

    /** Returns an integer uniformly distributed in [0, n); n must be > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /**
     * Returns a standard normal deviate.
     *
     * Box-Muller generates deviates in pairs: every *odd* call draws
     * two uniforms and computes both deviates, returning one and
     * caching the other; every *even* call returns the cached deviate
     * and consumes **no** generator state. Consequence: the value
     * returned by an even call is fixed once the preceding odd call
     * ran — draws of other distributions interleaved between them do
     * not affect it, but they do shift everything after the pair.
     * Callers that need order-independent samples should use the
     * counter-based normalFromKey instead.
     */
    double normal();

    /**
     * Returns a Gamma(shape k, scale theta) deviate.
     *
     * Marsaglia-Tsang for k >= 1, boosting for k < 1. Used for
     * heavy-tailed CPU-operation time variability.
     */
    double gamma(double shape, double scale);

  private:
    std::uint64_t state_[4];
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace util
} // namespace ceer

#endif // CEER_UTIL_RANDOM_H

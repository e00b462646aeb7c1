#include "util/random.h"

#include <cmath>

#include "util/logging.h"

namespace ceer {
namespace util {

std::uint64_t
hashMix(std::uint64_t seed, const std::string &text)
{
    // Length prefix keeps ("ab", "c") distinct from ("a", "bc") when
    // several strings are mixed in sequence.
    std::uint64_t h = hashMix(seed, text.size());
    for (unsigned char c : text)
        h = hashMix(h, c);
    return h;
}

double
inverseNormalCdf(double p)
{
    if (!(p > 0.0 && p < 1.0))
        panic("inverseNormalCdf requires p in (0, 1)");
    if (p < kInverseNormalCdfLow || p > 1.0 - kInverseNormalCdfLow) {
        const double q =
            std::sqrt(-2.0 * std::log(p < 0.5 ? p : 1.0 - p));
        const double z = inverseNormalCdfTailRational(q);
        return p < 0.5 ? z : -z;
    }
    const double q = p - 0.5;
    return inverseNormalCdfCentral(q, q * q);
}

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : state_)
        word = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    if (n == 0)
        panic("Rng::uniformInt called with n == 0");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -n % n;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    cachedNormal_ = radius * std::sin(angle);
    hasCachedNormal_ = true;
    return radius * std::cos(angle);
}

double
Rng::gamma(double shape, double scale)
{
    if (shape <= 0.0 || scale <= 0.0)
        panic("Rng::gamma requires positive shape and scale");
    if (shape < 1.0) {
        // Boost: Gamma(k) = Gamma(k + 1) * U^(1/k).
        const double u = std::max(uniform(), 1e-300);
        return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
    }
    // Marsaglia-Tsang squeeze method.
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x, v;
        do {
            x = normal();
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x)
            return d * v * scale;
        if (std::log(std::max(u, 1e-300)) <
            0.5 * x * x + d * (1.0 - v + std::log(v))) {
            return d * v * scale;
        }
    }
}

} // namespace util
} // namespace ceer

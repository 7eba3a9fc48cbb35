/**
 * @file
 * Deterministic pseudo-random number generation (SplitMix64 seeding a
 * xoshiro256** core). Every stochastic model component owns its own
 * Rng so simulations are reproducible regardless of call interleaving.
 */

#ifndef SN40L_SIM_RNG_H
#define SN40L_SIM_RNG_H

#include <cmath>
#include <cstdint>

namespace sn40l::sim {

/**
 * SplitMix64 finalizer: a cheap, high-quality 64-bit mixer for
 * decorrelating derived seeds (per-tenant, per-node) and hashing ids
 * onto rings. Shared here so every component mixes identically.
 */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL)
    {
        // SplitMix64 expansion of the seed into xoshiro state.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value (xoshiro256**). */
    std::uint64_t
    next()
    {
        std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    uniformInt(std::uint64_t bound)
    {
        // Rejection sampling to avoid modulo bias: accept r unless
        // r < 2^64 mod bound. That threshold is below bound, so any
        // r >= bound is accepted without paying for its division.
        for (;;) {
            std::uint64_t r = next();
            if (r >= bound || r >= (-bound) % bound)
                return r % bound;
        }
    }

    /** Uniform double in [0, 1). */
    double
    uniformDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /**
     * Exponential with the given mean — inter-arrival gaps and think
     * times. Consumes exactly one uniform draw.
     */
    double
    exponential(double mean)
    {
        return -std::log(1.0 - uniformDouble()) * mean;
    }

    /**
     * Standard normal via Box-Muller. Each pair of uniform draws
     * yields two variates; the spare is cached, so draw parity is part
     * of the generator's state (deterministic, but interleaving two
     * consumers on one Rng changes both streams — give each component
     * its own Rng, as everywhere else in this codebase).
     */
    double
    gaussian()
    {
        if (haveSpare_) {
            haveSpare_ = false;
            return spare_;
        }
        double u1 = uniformDouble();
        double u2 = uniformDouble();
        // Avoid log(0): uniformDouble() < 1, so 1 - u1 > 0.
        double r = std::sqrt(-2.0 * std::log(1.0 - u1));
        constexpr double kTwoPi = 6.283185307179586476925286766559;
        spare_ = r * std::sin(kTwoPi * u2);
        haveSpare_ = true;
        return r * std::cos(kTwoPi * u2);
    }

    /** Lognormal: exp(mu + sigma * N(0,1)) — request-length skew. */
    double
    lognormal(double mu, double sigma)
    {
        return std::exp(mu + sigma * gaussian());
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
    double spare_ = 0.0;
    bool haveSpare_ = false;
};

} // namespace sn40l::sim

#endif // SN40L_SIM_RNG_H

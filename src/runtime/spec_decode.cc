#include "runtime/spec_decode.h"

#include <cmath>
#include <cstdint>

#include "sim/log.h"

namespace sn40l::runtime {

double
SpecDecodeConfig::expectedTokensPerStep() const
{
    if (gamma <= 0)
        return 1.0;
    if (acceptRate <= 0.0)
        return 1.0;
    if (acceptRate >= 1.0)
        return gamma + 1.0;
    return (1.0 - std::pow(acceptRate, gamma + 1)) / (1.0 - acceptRate);
}

double
specDecodeTokensPerSecond(const SpecDecodeConfig &cfg,
                          double target_step_seconds,
                          double draft_token_seconds)
{
    if (cfg.gamma < 0)
        sim::fatal("specDecode: negative gamma");
    if (target_step_seconds <= 0.0)
        sim::fatal("specDecode: non-positive target step time");
    if (draft_token_seconds <= 0.0)
        return 1.0 / target_step_seconds;
    double step = target_step_seconds + cfg.gamma * draft_token_seconds;
    return cfg.expectedTokensPerStep() / step;
}

namespace {

/**
 * Reject a negative gamma or an acceptRate outside [0, 1] (NaN
 * included), and @return the acceptance threshold on the 53-bit draw
 * behind Rng::uniformDouble(): that double is exactly k * 2^-53, so
 * `uniformDouble() < acceptRate` holds iff k < ceil(acceptRate * 2^53),
 * and both sides are exact integers in [0, 2^53].
 */
std::uint64_t
acceptThreshold(const SpecDecodeConfig &cfg)
{
    if (cfg.gamma < 0)
        sim::fatal("specDecode: negative gamma");
    if (!(cfg.acceptRate >= 0.0 && cfg.acceptRate <= 1.0))
        sim::fatal("specDecode: acceptRate outside [0, 1]");
    return static_cast<std::uint64_t>(
        std::ceil(cfg.acceptRate * 0x1.0p53));
}

/**
 * One draft/verify step: count the leading accepts among gamma draws
 * without a data-dependent branch. Burn all gamma draws even after the
 * first rejection so that the same rng stream at a higher acceptRate
 * accepts a superset of tokens (common-random-numbers coupling).
 */
int
tokensForStep(int gamma, std::uint64_t threshold, sim::Rng &rng)
{
    int accepted = 0;
    int alive = 1;
    for (int i = 0; i < gamma; ++i) {
        alive &= static_cast<int>((rng.next() >> 11) < threshold);
        accepted += alive;
    }
    return accepted + 1;
}

} // namespace

int
sampleTokensPerStep(const SpecDecodeConfig &cfg, sim::Rng &rng)
{
    return tokensForStep(cfg.gamma, acceptThreshold(cfg), rng);
}

int
sampleStepsForTokens(const SpecDecodeConfig &cfg, int output_tokens,
                     sim::Rng &rng)
{
    if (output_tokens <= 0)
        return 0;
    std::uint64_t threshold = acceptThreshold(cfg);
    int emitted = 0;
    int steps = 0;
    while (emitted < output_tokens) {
        emitted += tokensForStep(cfg.gamma, threshold, rng);
        ++steps;
    }
    return steps;
}

} // namespace sn40l::runtime

/**
 * @file
 * Speculative decoding throughput model (Table IV: Llama 3.1 70B and
 * 405B use it). A draft model proposes gamma tokens; the target model
 * verifies them in one forward pass. Expected accepted tokens per
 * step follow the standard geometric formula from Leviathan et al.
 *
 * Degenerate corners (both decode autoregressively, one target token
 * per step at 1/target_step_seconds):
 *  - gamma == 0: no draft tokens are proposed, so the draft cost term
 *    gamma * draft_token_seconds vanishes even when draft time is
 *    positive, and expectedTokensPerStep() == 1.
 *  - draft_token_seconds <= 0: treated as "no draft model"; the step
 *    time is the bare target step.
 * Negative gamma is rejected (sim::fatal) — it would shrink the step
 * below the target verification time and inflate throughput.
 */

#ifndef SN40L_RUNTIME_SPEC_DECODE_H
#define SN40L_RUNTIME_SPEC_DECODE_H

#include "sim/rng.h"

namespace sn40l::runtime {

struct SpecDecodeConfig
{
    int gamma = 5;             ///< draft tokens per verification step
    double acceptRate = 0.93;  ///< per-token acceptance probability

    /** E[tokens emitted per step] = (1 - a^(gamma+1)) / (1 - a). */
    double expectedTokensPerStep() const;
};

/**
 * Output tokens/second given the target model's per-step verification
 * time and the draft model's per-token decode time (seconds). See the
 * file comment for the gamma == 0 and draft_token_seconds <= 0
 * corners. Fatals on gamma < 0 or target_step_seconds <= 0.
 */
double specDecodeTokensPerSecond(const SpecDecodeConfig &cfg,
                                 double target_step_seconds,
                                 double draft_token_seconds);

/**
 * Sample the number of tokens emitted by one draft/verify step:
 * consecutive accepted draft tokens plus the target model's bonus
 * token, in [1, gamma + 1]. Draws exactly cfg.gamma uniforms from
 * `rng` regardless of where the first rejection lands (common random
 * numbers), so for a fixed rng stream a higher acceptRate never
 * yields fewer tokens — the coupling that makes tokens/s monotone in
 * acceptance rate. Fatals on gamma < 0 or acceptRate outside [0, 1]
 * (NaN included).
 */
int sampleTokensPerStep(const SpecDecodeConfig &cfg, sim::Rng &rng);

/**
 * Number of draft/verify steps needed to emit `output_tokens` tokens,
 * sampling each step with sampleTokensPerStep. Returns 0 when
 * output_tokens <= 0. With gamma == 0 this is exactly output_tokens
 * (autoregressive).
 */
int sampleStepsForTokens(const SpecDecodeConfig &cfg, int output_tokens,
                         sim::Rng &rng);

} // namespace sn40l::runtime

#endif // SN40L_RUNTIME_SPEC_DECODE_H

/**
 * @file
 * Tests for the runtime: machine model, executor orchestration
 * semantics, the runner harness, and speculative decoding.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "models/transformer_builder.h"
#include "runtime/executor.h"
#include "runtime/runner.h"
#include "runtime/spec_decode.h"
#include "sim/log.h"

using namespace sn40l;
using namespace sn40l::runtime;

namespace {

graph::DataflowGraph
smallDecode()
{
    models::WorkloadSpec spec;
    spec.model = models::LlmConfig::llama2_7b();
    spec.phase = models::Phase::Decode;
    spec.seqLen = 512;
    spec.tensorParallel = 8;
    return models::buildTransformer(spec);
}

} // namespace

TEST(Machine, NodeAggregateDdrToHbmExceedsOneTerabytePerSecond)
{
    // Paper: "Models are loaded from DDR to HBM at over 1 TB/s in a
    // single SN40L Node."
    arch::NodeConfig cfg = arch::NodeConfig::sn40lNode(8);
    sim::EventQueue eq;
    RduNode node(eq, cfg);

    double bytes = 13.48e9; // one Llama2-7B expert
    sim::Tick est = node.estimateDdrToHbm(bytes);
    double rate = bytes / sim::toSeconds(est);
    EXPECT_GT(rate, 1e12);

    // The DES copy agrees with the estimate.
    sim::Tick done = -1;
    node.copyDdrToHbm(bytes, [&]() { done = eq.now(); });
    eq.run();
    EXPECT_NEAR(static_cast<double>(done), static_cast<double>(est),
                static_cast<double>(est) * 0.01 + 2e6);
}

TEST(Machine, HostPathIsMuchSlowerThanDdrPath)
{
    arch::NodeConfig cfg = arch::NodeConfig::sn40lNode(8);
    sim::EventQueue eq;
    RduNode node(eq, cfg);

    double bytes = 13.48e9;
    sim::Tick ddr_done = -1, host_done = -1;
    node.copyDdrToHbm(bytes, [&]() { ddr_done = eq.now(); });
    node.copyHostToHbm(bytes, [&]() { host_done = eq.now(); });
    eq.run();
    EXPECT_GT(host_done, 10 * ddr_done);
}

TEST(Executor, TimeIsLaunchPlusExec)
{
    graph::DataflowGraph g = smallDecode();
    arch::NodeConfig cfg = arch::NodeConfig::sn40lNode(8);

    compiler::CompileOptions options;
    options.fusion.tensorParallel = 8;
    options.fusion.mode = compiler::ExecMode::RduFused;
    compiler::Program prog = compiler::compile(g, cfg.chip, options);

    sim::EventQueue eq;
    RduNode node(eq, cfg);
    Executor executor(node);
    ExecutionResult result =
        executor.run(prog, arch::Orchestration::Software);

    EXPECT_EQ(result.totalTicks, result.launchTicks + result.execTicks);
    EXPECT_EQ(result.launches, prog.totalLaunches);
    // SW orchestration serializes host sync + Program Load + Argument
    // Load on every launch.
    sim::Tick per_launch = cfg.chip.swLaunchOverhead +
                           cfg.chip.programLoadOverhead +
                           cfg.chip.argumentLoadOverhead;
    EXPECT_EQ(result.launchTicks, prog.totalLaunches * per_launch);
}

TEST(Executor, HardwareOrchestrationOnlyCutsLaunchTime)
{
    graph::DataflowGraph g = smallDecode();
    arch::NodeConfig cfg = arch::NodeConfig::sn40lNode(8);

    compiler::CompileOptions options;
    options.fusion.tensorParallel = 8;
    compiler::Program prog = compiler::compile(g, cfg.chip, options);

    sim::EventQueue eq1, eq2;
    RduNode node_sw(eq1, cfg), node_hw(eq2, cfg);
    ExecutionResult sw = Executor(node_sw).run(
        prog, arch::Orchestration::Software);
    ExecutionResult hw = Executor(node_hw).run(
        prog, arch::Orchestration::Hardware);

    EXPECT_EQ(sw.execTicks, hw.execTicks);
    EXPECT_GT(sw.launchTicks, hw.launchTicks);
    EXPECT_LT(hw.totalTicks, sw.totalTicks);
}

TEST(Executor, ChannelStatsAccumulateTraffic)
{
    graph::DataflowGraph g = smallDecode();
    arch::NodeConfig cfg = arch::NodeConfig::sn40lNode(8);

    compiler::CompileOptions options;
    options.fusion.tensorParallel = 8;
    compiler::Program prog = compiler::compile(g, cfg.chip, options);

    sim::EventQueue eq;
    RduNode node(eq, cfg);
    Executor(node).run(prog, arch::Orchestration::Hardware);

    // Each socket streams its weight shard (roughly weights/8 plus
    // activations and KV).
    double socket_bytes = node.socket(0).hbm().stats().get("bytes");
    EXPECT_GT(socket_bytes, g.weightBytes() / 8 * 0.9);
    EXPECT_LT(socket_bytes, g.weightBytes() / 8 * 1.6);
}

TEST(Runner, ConfigOrderingHoldsForDecode)
{
    graph::DataflowGraph g = smallDecode();
    arch::NodeConfig cfg = arch::NodeConfig::sn40lNode(8);

    double unfused =
        runWorkload(g, cfg, 8, RunConfig::Unfused).seconds();
    double so = runWorkload(g, cfg, 8, RunConfig::FusedSO).seconds();
    double ho = runWorkload(g, cfg, 8, RunConfig::FusedHO).seconds();

    EXPECT_GT(unfused, so);
    EXPECT_GT(so, ho);
}

TEST(SpecDecode, ExpectedTokensFormula)
{
    SpecDecodeConfig cfg;
    cfg.gamma = 5;
    cfg.acceptRate = 0.0;
    EXPECT_DOUBLE_EQ(cfg.expectedTokensPerStep(), 1.0);
    cfg.acceptRate = 1.0;
    EXPECT_DOUBLE_EQ(cfg.expectedTokensPerStep(), 6.0);
    cfg.acceptRate = 0.5;
    // (1 - 0.5^6) / 0.5 = 1.96875
    EXPECT_NEAR(cfg.expectedTokensPerStep(), 1.96875, 1e-9);
}

TEST(SpecDecode, ThroughputBeatsAutoregressiveWhenDraftIsCheap)
{
    SpecDecodeConfig cfg;
    double target = 10e-3;
    double plain = specDecodeTokensPerSecond(cfg, target, 0.0);
    EXPECT_DOUBLE_EQ(plain, 100.0);
    double spec = specDecodeTokensPerSecond(cfg, target, 0.5e-3);
    EXPECT_GT(spec, 2.0 * plain);

    // An expensive draft can make speculation pointless.
    double bad = specDecodeTokensPerSecond(cfg, target, 20e-3);
    EXPECT_LT(bad, plain);
}

TEST(SpecDecode, RejectsBadTargetTime)
{
    SpecDecodeConfig cfg;
    EXPECT_THROW(specDecodeTokensPerSecond(cfg, 0.0, 1e-3),
                 sim::FatalError);
}

TEST(SpecDecode, RejectsNegativeGamma)
{
    // Regression: a negative gamma used to shrink the modeled step
    // below the target verification time and inflate tokens/s; it is
    // now rejected everywhere the config enters the model.
    SpecDecodeConfig cfg;
    cfg.gamma = -1;
    EXPECT_THROW(specDecodeTokensPerSecond(cfg, 10e-3, 1e-3),
                 sim::FatalError);
    sim::Rng rng(7);
    EXPECT_THROW(sampleTokensPerStep(cfg, rng), sim::FatalError);
}

TEST(SpecDecode, GammaZeroIsAutoregressiveEvenWithCostlyDraft)
{
    // Degenerate corner: no draft tokens proposed, so the draft cost
    // term vanishes even when draft decode time is positive.
    SpecDecodeConfig cfg;
    cfg.gamma = 0;
    EXPECT_DOUBLE_EQ(cfg.expectedTokensPerStep(), 1.0);
    double target = 10e-3;
    EXPECT_DOUBLE_EQ(specDecodeTokensPerSecond(cfg, target, 20e-3),
                     1.0 / target);
}

TEST(SpecDecode, NonPositiveDraftTimeMeansNoDraftModel)
{
    // Degenerate corner: draft_token_seconds <= 0 is "no draft
    // model" — the step is the bare target verification.
    SpecDecodeConfig cfg;
    cfg.gamma = 5;
    double target = 10e-3;
    EXPECT_DOUBLE_EQ(specDecodeTokensPerSecond(cfg, target, 0.0),
                     1.0 / target);
    EXPECT_DOUBLE_EQ(specDecodeTokensPerSecond(cfg, target, -1.0),
                     1.0 / target);
}

TEST(SpecDecode, SamplerBoundsAndExtremes)
{
    SpecDecodeConfig cfg;
    cfg.gamma = 4;
    EXPECT_THROW(
        [] {
            SpecDecodeConfig bad;
            bad.acceptRate = 1.5;
            sim::Rng r(1);
            sampleTokensPerStep(bad, r);
        }(),
        sim::FatalError);

    cfg.acceptRate = 0.0;
    sim::Rng rng(11);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sampleTokensPerStep(cfg, rng), 1);

    cfg.acceptRate = 1.0;
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sampleTokensPerStep(cfg, rng), cfg.gamma + 1);

    cfg.acceptRate = 0.6;
    for (int i = 0; i < 1000; ++i) {
        int t = sampleTokensPerStep(cfg, rng);
        EXPECT_GE(t, 1);
        EXPECT_LE(t, cfg.gamma + 1);
    }
}

TEST(SpecDecode, SamplerIsDeterministicAndCrnMonotone)
{
    SpecDecodeConfig cfg;
    cfg.gamma = 4;
    cfg.acceptRate = 0.5;

    sim::Rng a(42), b(42);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(sampleTokensPerStep(cfg, a),
                  sampleTokensPerStep(cfg, b));

    // Common-random-numbers coupling: the sampler burns exactly gamma
    // uniforms per step, so on identical rng streams a higher
    // acceptance rate can never emit fewer tokens per step.
    SpecDecodeConfig hi = cfg;
    hi.acceptRate = 0.9;
    sim::Rng lo_rng(7), hi_rng(7);
    for (int i = 0; i < 500; ++i) {
        int lo_t = sampleTokensPerStep(cfg, lo_rng);
        int hi_t = sampleTokensPerStep(hi, hi_rng);
        EXPECT_GE(hi_t, lo_t);
    }
}

TEST(SpecDecode, StepsForTokensCorners)
{
    SpecDecodeConfig cfg;
    cfg.gamma = 0;
    sim::Rng rng(3);
    // gamma == 0 is exactly autoregressive: one token per step.
    EXPECT_EQ(sampleStepsForTokens(cfg, 20, rng), 20);
    EXPECT_EQ(sampleStepsForTokens(cfg, 0, rng), 0);
    EXPECT_EQ(sampleStepsForTokens(cfg, -5, rng), 0);

    // accept == 1: every step retires gamma + 1 tokens.
    cfg.gamma = 4;
    cfg.acceptRate = 1.0;
    EXPECT_EQ(sampleStepsForTokens(cfg, 20, rng), 4);
    EXPECT_EQ(sampleStepsForTokens(cfg, 21, rng), 5);

    // accept == 0: every step retires exactly the bonus token.
    cfg.acceptRate = 0.0;
    EXPECT_EQ(sampleStepsForTokens(cfg, 20, rng), 20);
}

namespace reference {

// Verbatim copy of the branchy sampler the threshold form replaced.
int
sampleTokensPerStep(const SpecDecodeConfig &cfg, sim::Rng &rng)
{
    if (cfg.gamma < 0)
        sim::fatal("specDecode: negative gamma");
    if (cfg.acceptRate < 0.0 || cfg.acceptRate > 1.0)
        sim::fatal("specDecode: acceptRate outside [0, 1]");
    // Burn all gamma draws even after the first rejection so that the
    // same rng stream at a higher acceptRate accepts a superset of
    // tokens (common-random-numbers coupling).
    int accepted = 0;
    bool rejected = false;
    for (int i = 0; i < cfg.gamma; ++i) {
        bool accept = rng.uniformDouble() < cfg.acceptRate;
        if (!rejected && accept)
            ++accepted;
        else
            rejected = true;
    }
    return accepted + 1;
}

int
sampleStepsForTokens(const SpecDecodeConfig &cfg, int output_tokens,
                     sim::Rng &rng)
{
    if (output_tokens <= 0)
        return 0;
    int emitted = 0;
    int steps = 0;
    while (emitted < output_tokens) {
        emitted += reference::sampleTokensPerStep(cfg, rng);
        ++steps;
    }
    return steps;
}

} // namespace reference

TEST(SpecDecode, ThresholdSamplerMatchesReferenceBitForBit)
{
    // Rates whose 2^53 multiple is an integer put a draw exactly on the
    // accept boundary; their nextafter neighbours sit one ulp either
    // side of it. Rates built from the case's own upcoming draws make
    // those boundaries actually get hit.
    std::vector<double> fixed = {0.0, 1.0, 0.5, 0.8, 0.93, 0.25,
                                 0x1.0p-53, 1.0 - 0x1.0p-53, 0.1, 0.999};
    std::vector<double> rates;
    for (double a : fixed) {
        rates.push_back(a);
        rates.push_back(std::nextafter(a, 0.0));
        rates.push_back(std::nextafter(a, 1.0));
    }
    sim::Rng pick(99);
    for (int i = 0; i < 10; ++i)
        rates.push_back(pick.uniformDouble());

    int on_boundary = 0;
    for (std::uint64_t seed = 0; seed < 100'000; ++seed) {
        SpecDecodeConfig cfg;
        cfg.gamma = static_cast<int>(seed % 9);
        int tokens = static_cast<int>((seed / 9) % 65);
        sim::Rng want_rng(seed), got_rng(seed);
        switch (seed % 3) {
          case 0:
            cfg.acceptRate = rates[(seed / 3) % rates.size()];
            break;
          case 1:
            cfg.acceptRate = pick.uniformDouble();
            break;
          default: {
            // k * 2^-53 for one of this stream's first draws, or a
            // neighbour one ulp away.
            sim::Rng peek(seed);
            std::uint64_t skip = pick.uniformInt(8);
            for (std::uint64_t i = 0; i < skip; ++i)
                peek.next();
            double a = static_cast<double>(peek.next() >> 11) * 0x1.0p-53;
            std::uint64_t side = pick.uniformInt(3);
            if (side == 1)
                a = std::nextafter(a, 0.0);
            else if (side == 2)
                a = std::nextafter(a, 1.0);
            cfg.acceptRate = a;
            on_boundary += side == 0 && cfg.gamma > 0 && tokens > 0 &&
                           skip < static_cast<std::uint64_t>(cfg.gamma);
            break;
          }
        }

        ASSERT_EQ(sampleStepsForTokens(cfg, tokens, got_rng),
                  reference::sampleStepsForTokens(cfg, tokens, want_rng))
            << "seed " << seed << " gamma " << cfg.gamma << " accept "
            << cfg.acceptRate << " tokens " << tokens;
        ASSERT_EQ(sampleTokensPerStep(cfg, got_rng),
                  reference::sampleTokensPerStep(cfg, want_rng))
            << "seed " << seed;
        ASSERT_EQ(got_rng.next(), want_rng.next()) << "seed " << seed;
    }
    EXPECT_GT(on_boundary, 1000);

    // The threshold needs an ordered rate: NaN is rejected, not
    // silently treated as "never accept".
    SpecDecodeConfig nan_cfg;
    nan_cfg.acceptRate = std::numeric_limits<double>::quiet_NaN();
    sim::Rng rng(1);
    EXPECT_THROW(sampleTokensPerStep(nan_cfg, rng), sim::FatalError);
    EXPECT_THROW(sampleStepsForTokens(nan_cfg, 8, rng), sim::FatalError);
}

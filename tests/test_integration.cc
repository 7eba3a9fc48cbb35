/**
 * @file
 * Whole-system integration tests: the paper's headline claims as
 * executable assertions over the full pipeline (builder -> compiler
 * -> executor -> serving).
 */

#include <gtest/gtest.h>

#include "coe/serving.h"
#include "models/model_zoo.h"
#include "runtime/runner.h"
#include "runtime/spec_decode.h"

using namespace sn40l;

TEST(Integration, FusionSpeedupBandsAcrossTheSuite)
{
    // Paper Fig 10: speedups between ~1.5x and ~13x over the unfused
    // baseline across all benchmarks.
    arch::NodeConfig node = arch::NodeConfig::sn40lNode(8);
    for (const auto &bench : models::paperBenchmarks()) {
        graph::DataflowGraph g = bench.build();
        double unfused = runtime::runWorkload(
            g, node, bench.sockets, runtime::RunConfig::Unfused)
            .seconds();
        double fused = runtime::runWorkload(
            g, node, bench.sockets, runtime::RunConfig::FusedSO)
            .seconds();
        double speedup = unfused / fused;
        EXPECT_GT(speedup, 1.2) << bench.name;
        EXPECT_LT(speedup, 16.0) << bench.name;
    }
}

TEST(Integration, KernelCallRatioAlwaysAboveOne)
{
    // Paper Fig 11: every benchmark launches strictly fewer kernels
    // when fused.
    arch::NodeConfig node = arch::NodeConfig::sn40lNode(8);
    for (const auto &bench : models::paperBenchmarks()) {
        graph::DataflowGraph g = bench.build();
        auto unfused = runtime::runWorkload(
            g, node, bench.sockets, runtime::RunConfig::Unfused);
        auto fused = runtime::runWorkload(
            g, node, bench.sockets, runtime::RunConfig::FusedHO);
        double ratio =
            static_cast<double>(unfused.program.totalLaunches) /
            static_cast<double>(fused.program.totalLaunches);
        EXPECT_GT(ratio, 5.0) << bench.name;
    }
}

TEST(Integration, FlashFftConvIsASingleFusedKernel)
{
    // Paper Section VI-A: "the entire FlashFFTConv benchmark is
    // executed with a single kernel launch".
    arch::NodeConfig node = arch::NodeConfig::sn40lNode(8);
    models::FftConvSpec spec;
    graph::DataflowGraph g = models::buildFftConv(spec);
    auto fused = runtime::runWorkload(g, node, 1,
                                      runtime::RunConfig::FusedHO);
    EXPECT_EQ(fused.program.kernels.size(), 1u);

    // And it shows the largest fusion speedup of the suite (13x).
    auto unfused = runtime::runWorkload(g, node, 1,
                                        runtime::RunConfig::Unfused);
    EXPECT_GT(unfused.seconds() / fused.seconds(), 8.0);
}

TEST(Integration, HardwareOrchestrationHelpsDecodeNotPrefill)
{
    // Paper Section VI-A2: decode gains noticeably from HW-orchestrated
    // launches; prefill sees at most ~1.1x.
    arch::NodeConfig node = arch::NodeConfig::sn40lNode(8);

    models::WorkloadSpec spec;
    spec.model = models::LlmConfig::mistral7b();
    spec.tensorParallel = 8;
    spec.seqLen = 2048;

    spec.phase = models::Phase::Decode;
    graph::DataflowGraph decode = models::buildTransformer(spec);
    double d_so = runtime::runWorkload(decode, node, 8,
                                       runtime::RunConfig::FusedSO)
                      .seconds();
    double d_ho = runtime::runWorkload(decode, node, 8,
                                       runtime::RunConfig::FusedHO)
                      .seconds();

    spec.phase = models::Phase::Prefill;
    graph::DataflowGraph prefill = models::buildTransformer(spec);
    double p_so = runtime::runWorkload(prefill, node, 8,
                                       runtime::RunConfig::FusedSO)
                      .seconds();
    double p_ho = runtime::runWorkload(prefill, node, 8,
                                       runtime::RunConfig::FusedHO)
                      .seconds();

    double decode_gain = d_so / d_ho;
    double prefill_gain = p_so / p_ho;
    EXPECT_GT(decode_gain, 1.3);
    EXPECT_LT(prefill_gain, 1.15);
    EXPECT_GT(decode_gain, prefill_gain);
}

TEST(Integration, DecodeSaturatesMostOfHbmBandwidth)
{
    // Paper Section VI-B: fused decode streams weights at ~85% of
    // HBM bandwidth; the cost model's decode time should be within
    // ~25% of the pure weight-streaming bound.
    arch::NodeConfig node = arch::NodeConfig::sn40lNode(8);
    models::WorkloadSpec spec;
    spec.model = models::LlmConfig::llama2_7b();
    spec.phase = models::Phase::Decode;
    spec.seqLen = 2048;
    spec.tensorParallel = 8;
    graph::DataflowGraph g = models::buildTransformer(spec);

    double t = runtime::runWorkload(g, node, 8,
                                    runtime::RunConfig::FusedHO)
                   .seconds();
    double bound = g.weightBytes() / 8 /
                   node.chip.effectiveHbmBandwidth();
    EXPECT_GT(t, bound);
    EXPECT_LT(t, bound * 1.4);
}

TEST(Integration, TableFourTokenRates)
{
    // Paper Table IV: 1042 / 457 / 129 output tokens/s/user on 16
    // sockets. Accept generous bands (see EXPERIMENTS.md).
    arch::NodeConfig node = arch::NodeConfig::sn40lNode(16);
    auto specs = models::llama31Specs();

    double t8 = runtime::decodeSecondsPerToken(
        models::buildTransformer(specs[0]), node, 16);
    double t70 = runtime::decodeSecondsPerToken(
        models::buildTransformer(specs[1]), node, 16);
    double t405 = runtime::decodeSecondsPerToken(
        models::buildTransformer(specs[2]), node, 16);

    double r8 = 1.0 / t8;
    runtime::SpecDecodeConfig sd;
    double r70 = runtime::specDecodeTokensPerSecond(sd, t70, t8);
    double r405 = runtime::specDecodeTokensPerSecond(sd, t405, t8);

    EXPECT_NEAR(r8, 1042.0, 250.0);
    EXPECT_NEAR(r70, 457.0, 120.0);
    EXPECT_NEAR(r405, 129.0, 35.0);
    // Ordering is strict.
    EXPECT_GT(r8, r70);
    EXPECT_GT(r70, r405);
}

TEST(Integration, EndToEndCoeLatencyOrdering)
{
    // At 150 experts with 20 output tokens, the SN40L node is the
    // fastest platform, H100 second, A100 third (Fig 12).
    auto latency = [](coe::Platform p) {
        coe::ServingConfig cfg;
        cfg.platform = p;
        cfg.numExperts = 150;
        return coe::analyticBatches(cfg, 50).perBatch.total();
    };
    double rdu = latency(coe::Platform::Sn40l);
    double h100 = latency(coe::Platform::DgxH100);
    double a100 = latency(coe::Platform::DgxA100);
    EXPECT_LT(rdu, h100);
    EXPECT_LT(h100, a100);
}

TEST(Integration, SwitchTimeDominatesDgxNotRdu)
{
    // Fig 1: model switching is the majority of DGX latency at BS=8
    // but a small fraction on the SN40L.
    auto share = [](coe::Platform p) {
        coe::ServingConfig cfg;
        cfg.platform = p;
        cfg.numExperts = 150;
        cfg.batch = 8;
        return coe::analyticBatches(cfg, 50).perBatch.switchShare();
    };
    EXPECT_GT(share(coe::Platform::DgxA100), 0.5);
    EXPECT_LT(share(coe::Platform::Sn40l), 0.35);
}

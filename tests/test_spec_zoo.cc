/**
 * @file
 * Tests for the two first-class serving modes added on top of the
 * event-driven engine: speculative decoding (draft/verify batches
 * shaped per request through the exec/traffic hooks) and the PEFT
 * expert zoo (thousands of LoRA adapters sharing pinned base
 * weights). Covers the always-resident reservations carved out of the
 * HBM expert region, adapter sizing, config policing, the DMA
 * per-transfer setup cost the zoo's tiny transfers expose, engine
 * throughput ordering (spec beats autoregressive at high acceptance,
 * loses at zero), zoo hit-rate scaling with the region, conservation,
 * determinism, and a multi-node cluster run with both features
 * enabled.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "coe/cluster.h"
#include "coe/serving.h"
#include "coe/serving_engine.h"
#include "mem/memory_system.h"
#include "runtime/spec_decode.h"
#include "sim/event_queue.h"
#include "sim/log.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

/** Decode-heavy backlogged stream: tokens/s measures service rate. */
ServingConfig
backloggedSpecConfig()
{
    ServingConfig cfg;
    cfg.platform = Platform::Sn40l;
    cfg.numExperts = 8;
    cfg.batch = 8;
    cfg.promptLen = 128;
    cfg.outputTokens = 200;
    cfg.streamRequests = 400;
    cfg.arrivalRatePerSec = 1000.0;
    cfg.seed = 7;
    return cfg;
}

double
tokensPerSec(const ServingConfig &cfg)
{
    ServingResult r = ServingSimulator(cfg).run();
    EXPECT_FALSE(r.oom);
    EXPECT_EQ(r.stream.completed, cfg.streamRequests);
    return r.stream.throughputTokensPerSec;
}

} // namespace

// ----------------------------------------------------- adapter sizing

TEST(Zoo, LoraAdapterBytesScaleWithRankAndStayTiny)
{
    models::LlmConfig base = models::LlmConfig::llama2_7b();
    double r8 = loraAdapterBytes(base, 8);
    double r16 = loraAdapterBytes(base, 16);
    EXPECT_DOUBLE_EQ(r16, 2.0 * r8);
    // Orders of magnitude below the full expert (the zoo's premise).
    EXPECT_LT(r16, base.weightBytes() / 100.0);
    EXPECT_THROW(loraAdapterBytes(base, 0), sim::FatalError);
    EXPECT_THROW(loraAdapterBytes(base, -1), sim::FatalError);
}

TEST(Zoo, BuildServingZooIsUniformWhenDisabled)
{
    ServingConfig cfg;
    cfg.numExperts = 12;
    ExpertZoo plain = ExpertZoo::uniform(12, cfg.expertBase);
    ExpertZoo built = buildServingZoo(cfg);
    ASSERT_EQ(built.size(), plain.size());
    EXPECT_DOUBLE_EQ(built.totalBytes(), plain.totalBytes());

    cfg.zoo.enabled = true;
    cfg.zoo.rank = 16;
    ExpertZoo adapters = buildServingZoo(cfg);
    ASSERT_EQ(adapters.size(), 12u);
    double per = loraAdapterBytes(cfg.expertBase, 16);
    EXPECT_DOUBLE_EQ(adapters.expert(0).bytes, per);
    EXPECT_DOUBLE_EQ(adapters.totalBytes(), 12.0 * per);
    EXPECT_EQ(adapters.expert(0).domain, "peft");
}

// -------------------------------------------- expert-region reservations

TEST(Engine, ExpertRegionReservationsComeOutOfTheLru)
{
    ServingConfig cfg;
    cfg.platform = Platform::Sn40l;
    PhaseCosts costs = computePhaseCosts(cfg);
    std::int64_t base =
        ServingEngine::effectiveExpertRegionBytes(cfg, costs);
    EXPECT_EQ(base, costs.expertRegionBytes); // flags off: identity

    double weights = cfg.expertBase.weightBytes();
    ServingConfig spec = cfg;
    spec.specDecode.enabled = true;
    spec.specDecode.draftRatio = 0.05;
    std::int64_t with_draft =
        ServingEngine::effectiveExpertRegionBytes(spec, costs);
    EXPECT_EQ(with_draft,
              base - static_cast<std::int64_t>(0.05 * weights));

    ServingConfig zoo = cfg;
    zoo.zoo.enabled = true;
    std::int64_t with_base =
        ServingEngine::effectiveExpertRegionBytes(zoo, costs);
    EXPECT_EQ(with_base, base - static_cast<std::int64_t>(weights));

    // Reservations that swallow the whole region are a config error.
    ServingConfig broke = spec;
    broke.expertRegionBytes =
        static_cast<std::int64_t>(0.01 * weights);
    EXPECT_THROW(ServingEngine::effectiveExpertRegionBytes(
                     broke, computePhaseCosts(broke)),
                 sim::FatalError);
}

// ------------------------------------------------------ config policing

TEST(Config, SpecAndZooFieldsArePolicedOnlyWhenEnabled)
{
    ServingConfig cfg;
    cfg.specDecode.gamma = -3; // ignored while disabled
    validateServingConfig(cfg);

    cfg.specDecode.enabled = true;
    EXPECT_THROW(validateServingConfig(cfg), sim::FatalError);
    cfg.specDecode.gamma = 4;
    cfg.specDecode.acceptRate = 1.5;
    EXPECT_THROW(validateServingConfig(cfg), sim::FatalError);
    cfg.specDecode.acceptRate = std::nan("");
    EXPECT_THROW(validateServingConfig(cfg), sim::FatalError);
    cfg.specDecode.acceptRate = 0.8;
    cfg.specDecode.draftRatio = 1.0;
    EXPECT_THROW(validateServingConfig(cfg), sim::FatalError);
    cfg.specDecode.draftRatio = std::nan("");
    EXPECT_THROW(validateServingConfig(cfg), sim::FatalError);
    cfg.specDecode.draftRatio = 0.05;
    validateServingConfig(cfg);

    cfg.zoo.enabled = true;
    cfg.zoo.rank = 0;
    EXPECT_THROW(validateServingConfig(cfg), sim::FatalError);
    cfg.zoo.rank = 16;
    cfg.zoo.churnEverySeconds = -1.0;
    EXPECT_THROW(validateServingConfig(cfg), sim::FatalError);
    cfg.zoo.churnEverySeconds = std::nan(""); // used to mean "off"
    EXPECT_THROW(validateServingConfig(cfg), sim::FatalError);
    cfg.zoo.churnEverySeconds = 0.0;
    cfg.zoo.dmaSetupSeconds = -1e-6;
    EXPECT_THROW(validateServingConfig(cfg), sim::FatalError);
    cfg.zoo.dmaSetupSeconds = 4e-6;
    validateServingConfig(cfg);
}

TEST(Config, ZipfSkewIsPolicedUnderZipfRouting)
{
    ServingConfig cfg;
    cfg.zipfS = std::nan(""); // ignored without Zipf routing
    validateServingConfig(cfg);

    cfg.routing = RoutingDistribution::Zipf;
    for (double s : {std::nan(""), -1.0, 0.0, HUGE_VAL})
        EXPECT_THROW(
            {
                cfg.zipfS = s;
                validateServingConfig(cfg);
            },
            sim::FatalError)
            << s;
    cfg.zipfS = 1.2;
    validateServingConfig(cfg);
}

// ------------------------------------------------- DMA setup latency

TEST(Dma, SetupCostDelaysCompletionByExactlyTheSetupSpan)
{
    mem::MemorySystemConfig mcfg;
    mcfg.ddr.channels = 1;
    mcfg.ddr.perChannelBandwidth = 100e9;
    mcfg.hbm.channels = 1;
    mcfg.hbm.perChannelBandwidth = 1000e9;
    mcfg.dmaEngines = 1;
    double bytes = 1e9;

    auto run_one = [&](double setup) {
        mem::MemorySystemConfig c = mcfg;
        c.dmaSetupSeconds = setup;
        sim::EventQueue eq;
        mem::MemorySystem mem(eq, "m", c);
        sim::Tick done = -1;
        mem.load(0, 0, bytes, mem::TransferPriority::Demand,
                 [&]() { done = eq.now(); });
        eq.run();
        return done;
    };

    sim::Tick plain = run_one(0.0);
    sim::Tick with_setup = run_one(4e-6);
    EXPECT_EQ(with_setup, plain + sim::fromSeconds(4e-6));

    mem::MemorySystemConfig bad = mcfg;
    bad.dmaSetupSeconds = -1.0;
    EXPECT_THROW(bad.validate(), sim::FatalError);
}

// --------------------------------------------- engine-level throughput

TEST(SpecServing, BeatsAutoregressiveAtHighAcceptLosesAtZero)
{
    ServingConfig ar = backloggedSpecConfig();
    double ar_tps = tokensPerSec(ar);

    ServingConfig hi = ar;
    hi.specDecode.enabled = true;
    hi.specDecode.gamma = 4;
    hi.specDecode.acceptRate = 0.9;
    hi.specDecode.draftRatio = 0.05;
    double hi_tps = tokensPerSec(hi);
    EXPECT_GT(hi_tps, ar_tps);

    ServingConfig lo = hi;
    lo.specDecode.acceptRate = 0.0;
    double lo_tps = tokensPerSec(lo);
    EXPECT_LT(lo_tps, ar_tps); // pays the draft overhead for nothing
}

TEST(SpecServing, StepAccountingMatchesTheClosedForm)
{
    ServingConfig cfg = backloggedSpecConfig();
    cfg.specDecode.enabled = true;
    cfg.specDecode.gamma = 4;
    cfg.specDecode.acceptRate = 0.8;
    ServingResult r = ServingSimulator(cfg).run();
    EXPECT_GT(r.stream.specSteps, 0);
    EXPECT_GE(r.stream.specTokensPerStep, 1.0);
    EXPECT_LE(r.stream.specTokensPerStep,
              cfg.specDecode.gamma + 1.0);

    runtime::SpecDecodeConfig sd;
    sd.gamma = cfg.specDecode.gamma;
    sd.acceptRate = cfg.specDecode.acceptRate;
    // Measured mean within a few percent of E[tokens/step] (the last
    // partially-filled step of each request biases it slightly low).
    EXPECT_NEAR(r.stream.specTokensPerStep, sd.expectedTokensPerStep(),
                0.2);
}

TEST(SpecServing, DeterministicRunToRunAndConserved)
{
    ServingConfig cfg = backloggedSpecConfig();
    cfg.specDecode.enabled = true;
    cfg.specDecode.acceptRate = 0.7;
    ServingResult a = ServingSimulator(cfg).run();
    ServingResult b = ServingSimulator(cfg).run();
    EXPECT_EQ(a.stream.completed + a.stream.shed, cfg.streamRequests);
    EXPECT_EQ(a.stream.completed, b.stream.completed);
    EXPECT_EQ(a.stream.specSteps, b.stream.specSteps);
    EXPECT_DOUBLE_EQ(a.stream.throughputTokensPerSec,
                     b.stream.throughputTokensPerSec);
    EXPECT_DOUBLE_EQ(a.stream.p95LatencySeconds,
                     b.stream.p95LatencySeconds);
}

// ------------------------------------------------------- zoo streaming

TEST(ZooServing, HitRateRisesWithAdapterRegion)
{
    auto hit_rate = [](int slots) {
        ServingConfig cfg;
        cfg.platform = Platform::Sn40l;
        cfg.numExperts = 500;
        cfg.zoo.enabled = true;
        cfg.zoo.rank = 16;
        cfg.batch = 1;
        cfg.routing = RoutingDistribution::Zipf;
        cfg.zipfS = 1.0;
        cfg.streamRequests = 400;
        cfg.arrivalRatePerSec = 16.0;
        cfg.seed = 7;
        double adapter = loraAdapterBytes(cfg.expertBase, 16);
        cfg.expertRegionBytes = static_cast<std::int64_t>(
            cfg.expertBase.weightBytes() + slots * adapter * 1.001);
        ServingResult r = ServingSimulator(cfg).run();
        EXPECT_FALSE(r.oom);
        EXPECT_EQ(r.stream.completed, cfg.streamRequests);
        return 1.0 - r.missRate;
    };
    double small = hit_rate(8);
    double mid = hit_rate(64);
    double large = hit_rate(500);
    EXPECT_LT(small, mid);
    EXPECT_LE(mid, large);
    EXPECT_GT(large, 0.4); // full zoo resident: only cold misses left
}

TEST(ZooServing, ChurnKeepsConservationAndChangesTraffic)
{
    ServingConfig cfg;
    cfg.platform = Platform::Sn40l;
    cfg.numExperts = 64;
    cfg.zoo.enabled = true;
    cfg.zoo.rank = 16;
    cfg.batch = 4;
    cfg.routing = RoutingDistribution::Zipf;
    cfg.streamRequests = 600;
    cfg.arrivalRatePerSec = 32.0;
    cfg.seed = 11;

    ServingResult still = ServingSimulator(cfg).run();
    cfg.zoo.churnEverySeconds = 3.0;
    ServingResult churned = ServingSimulator(cfg).run();

    EXPECT_EQ(still.stream.completed, cfg.streamRequests);
    EXPECT_EQ(churned.stream.completed, cfg.streamRequests);
    // Rotating the hot adapters re-cools the LRU every period.
    EXPECT_GE(churned.missRate, still.missRate);

    ServingResult again = ServingSimulator(cfg).run();
    EXPECT_DOUBLE_EQ(churned.missRate, again.missRate);
    EXPECT_DOUBLE_EQ(churned.stream.p95LatencySeconds,
                     again.stream.p95LatencySeconds);
}

// ---------------------------------------------------------- cluster

TEST(ClusterSpecZoo, ClusterConservesWithBothFeaturesOn)
{
    ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.dispatch = DispatchPolicy::RoundRobin;
    cfg.placement = PlacementPolicy::FullReplication;
    cfg.node.platform = Platform::Sn40l;
    cfg.node.numExperts = 200;
    cfg.node.zoo.enabled = true;
    cfg.node.zoo.rank = 16;
    cfg.node.zoo.churnEverySeconds = 5.0;
    cfg.node.specDecode.enabled = true;
    cfg.node.specDecode.gamma = 4;
    cfg.node.specDecode.acceptRate = 0.8;
    cfg.node.batch = 8;
    cfg.node.streamRequests = 2000;
    cfg.node.routing = RoutingDistribution::Zipf;
    cfg.node.arrivalRatePerSec = 48.0;
    cfg.node.seed = 7;

    ClusterResult r = ClusterSimulator(cfg).run();
    EXPECT_FALSE(r.oom);
    EXPECT_EQ(r.stream.completed + r.stream.shed + r.stream.lost,
              cfg.node.streamRequests);
    EXPECT_GT(r.stream.specSteps, 0);
}

/**
 * @file
 * Tests for the CoE stack: expert zoo, router distributions, the LRU
 * expert cache with read-only skip-copyback, the serving simulator,
 * and the footprint planner.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "coe/coe_runtime.h"
#include "coe/expert.h"
#include "coe/footprint.h"
#include "coe/router.h"
#include "coe/serving.h"
#include "sim/log.h"
#include "sim/rng.h"

using namespace sn40l;
using namespace sn40l::coe;

TEST(ExpertZoo, SambaCoeZoo)
{
    ExpertZoo zoo =
        ExpertZoo::uniform(150, models::LlmConfig::llama2_7b());
    EXPECT_EQ(zoo.size(), 150);
    // Over a trillion parameters in total (Section II).
    EXPECT_GT(zoo.totalBytes(), 2.0e12); // 1T params in BF16
    EXPECT_NEAR(zoo.expert(0).bytes, 13.48e9, 0.1e9);
    EXPECT_THROW(zoo.expert(150), sim::SimPanic);
}

TEST(Router, DeterministicPerSeed)
{
    Router a(150, RoutingDistribution::Uniform, 42);
    Router b(150, RoutingDistribution::Uniform, 42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.route(), b.route());
}

TEST(Router, UniformCoversExperts)
{
    Router r(16, RoutingDistribution::Uniform, 7);
    std::map<int, int> counts;
    for (int i = 0; i < 4000; ++i)
        ++counts[r.route()];
    EXPECT_EQ(counts.size(), 16u);
    for (const auto &kv : counts) {
        EXPECT_GT(kv.second, 150);
        EXPECT_LT(kv.second, 350);
    }
}

TEST(Router, ZipfSkewsTowardHotExperts)
{
    Router r(100, RoutingDistribution::Zipf, 7, 1.2);
    std::map<int, int> counts;
    for (int i = 0; i < 10000; ++i)
        ++counts[r.route()];
    // Expert 0 should dominate the tail.
    EXPECT_GT(counts[0], 10 * std::max(counts[50], 1));
}

TEST(Router, ZipfRoutesMatchLinearCdfScan)
{
    // Reference: the original linear scan for the first i with
    // u <= cdf[i], over a CDF built exactly as the router builds it.
    // Skew 8 flattens the tail into equal CDF entries (ties).
    for (int experts : {1, 2, 7, 150, 2000}) {
        for (double s : {0.0, 0.6, 1.0, 1.2, 8.0}) {
            std::vector<double> cdf(static_cast<std::size_t>(experts));
            double sum = 0.0;
            for (int i = 0; i < experts; ++i) {
                sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
                cdf[static_cast<std::size_t>(i)] = sum;
            }
            for (double &v : cdf)
                v /= sum;
            for (std::uint64_t seed : {1u, 7u, 4242u}) {
                Router router(experts, RoutingDistribution::Zipf, seed, s);
                sim::Rng rng(seed);
                for (int k = 0; k < 2000; ++k) {
                    double u = rng.uniformDouble();
                    int expect = experts - 1;
                    for (int i = 0; i < experts; ++i) {
                        if (u <= cdf[static_cast<std::size_t>(i)]) {
                            expect = i;
                            break;
                        }
                    }
                    ASSERT_EQ(router.route(), expect)
                        << "experts " << experts << " s " << s << " seed "
                        << seed << " draw " << k;
                }
            }
        }
    }
}

TEST(Router, RoundRobinCycles)
{
    Router r(5, RoutingDistribution::RoundRobin);
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(r.route(), i % 5);
}

namespace {

ExpertZoo
tinyZoo(int count, double bytes, double mutable_bytes = 0.0)
{
    ExpertZoo zoo;
    for (int i = 0; i < count; ++i) {
        ExpertModel e;
        e.name = "e" + std::to_string(i);
        e.config = models::LlmConfig::llama2_7b();
        e.bytes = bytes;
        e.mutableBytes = mutable_bytes;
        zoo.add(e);
    }
    return zoo;
}

} // namespace

TEST(CoeRuntime, HitsAndMisses)
{
    ExpertZoo zoo = tinyZoo(4, 100.0);
    CoeRuntime runtime(zoo, 250); // two experts fit

    auto a0 = runtime.activate(0);
    EXPECT_FALSE(a0.hit);
    EXPECT_DOUBLE_EQ(a0.bytesToLoad, 100.0);

    auto a0_again = runtime.activate(0);
    EXPECT_TRUE(a0_again.hit);
    EXPECT_DOUBLE_EQ(a0_again.bytesToLoad, 0.0);
    EXPECT_EQ(runtime.residentCount(), 1);
}

TEST(CoeRuntime, LruEvictionOrder)
{
    ExpertZoo zoo = tinyZoo(4, 100.0);
    CoeRuntime runtime(zoo, 250);

    runtime.activate(0);
    runtime.activate(1); // region full: {1, 0}
    runtime.activate(0); // refresh 0: {0, 1}
    auto a2 = runtime.activate(2); // evicts 1 (least recent)
    EXPECT_EQ(a2.evictions, 1);
    EXPECT_TRUE(runtime.resident(0));
    EXPECT_FALSE(runtime.resident(1));
    EXPECT_TRUE(runtime.resident(2));
}

TEST(CoeRuntime, ReadOnlyEvictionSkipsCopyBack)
{
    ExpertZoo ro = tinyZoo(3, 100.0, 0.0);
    CoeRuntime runtime_ro(ro, 200);
    runtime_ro.activate(0);
    runtime_ro.activate(1);
    auto act = runtime_ro.activate(2);
    EXPECT_DOUBLE_EQ(act.bytesToWriteBack, 0.0);
    EXPECT_GT(runtime_ro.stats().get("copyback_skipped"), 0.0);

    // Mutable state must be written back (Section V-B).
    ExpertZoo rw = tinyZoo(3, 100.0, 25.0);
    CoeRuntime runtime_rw(rw, 200);
    runtime_rw.activate(0);
    runtime_rw.activate(1);
    auto act_rw = runtime_rw.activate(2);
    EXPECT_DOUBLE_EQ(act_rw.bytesToWriteBack, 25.0);
}

TEST(CoeRuntime, RejectsOversizedExpert)
{
    ExpertZoo zoo = tinyZoo(1, 1000.0);
    EXPECT_THROW(CoeRuntime(zoo, 500), sim::FatalError);
}

TEST(CoeRuntime, SteadyStateMissRateMatchesCapacityRatio)
{
    // Uniform routing over N experts with a C-expert cache: the
    // steady-state hit rate approaches C/N.
    const int n = 40, cap = 10;
    ExpertZoo zoo = tinyZoo(n, 100.0);
    CoeRuntime runtime(zoo, cap * 100 + 50);
    Router router(n, RoutingDistribution::Uniform, 5);

    int misses = 0;
    const int trials = 8000;
    for (int i = 0; i < trials; ++i) {
        if (!runtime.activate(router.route()).hit)
            ++misses;
    }
    double miss_rate = static_cast<double>(misses) / trials;
    EXPECT_NEAR(miss_rate, 1.0 - static_cast<double>(cap) / n, 0.05);
}

TEST(Serving, Sn40lPhaseCostsMatchPaperAnchors)
{
    ServingConfig cfg;
    cfg.platform = Platform::Sn40l;
    ServingSimulator sim(cfg);
    const PhaseCosts &c = sim.phaseCosts();

    // Expert switch: ~13.5 GB at >1 TB/s node DDR->HBM: ~13 ms.
    EXPECT_GT(c.switchSeconds, 8e-3);
    EXPECT_LT(c.switchSeconds, 20e-3);
    // Decode streams weights each token: ~1-2 ms per token on TP8.
    EXPECT_GT(c.decodeSecondsPerToken, 0.8e-3);
    EXPECT_LT(c.decodeSecondsPerToken, 2.5e-3);
}

TEST(Serving, SwitchSpeedupOverDgxMatchesPaperBand)
{
    ServingConfig cfg;
    cfg.platform = Platform::Sn40l;
    double rdu = ServingSimulator(cfg).phaseCosts().switchSeconds;
    cfg.platform = Platform::DgxA100;
    double a100 = ServingSimulator(cfg).phaseCosts().switchSeconds;
    cfg.platform = Platform::DgxH100;
    double h100 = ServingSimulator(cfg).phaseCosts().switchSeconds;

    // Paper: model switching 31x vs A100, 15x vs H100.
    EXPECT_NEAR(a100 / rdu, 31.0, 4.0);
    EXPECT_NEAR(h100 / rdu, 15.5, 2.0);
}

TEST(Serving, DgxOomAboveOneHundredFiftyExperts)
{
    ServingConfig cfg;
    cfg.platform = Platform::DgxA100;
    cfg.requests = 4;

    cfg.numExperts = 150;
    EXPECT_FALSE(ServingSimulator(cfg).run().oom);
    cfg.numExperts = 160;
    EXPECT_TRUE(ServingSimulator(cfg).run().oom);

    // The SN40L node holds 850 experts (Section VI-C).
    cfg.platform = Platform::Sn40l;
    cfg.numExperts = 850;
    EXPECT_FALSE(ServingSimulator(cfg).run().oom);
}

TEST(Serving, OverallSpeedupBandsAtOneFiftyExperts)
{
    auto total = [](Platform p, int batch) {
        ServingConfig cfg;
        cfg.platform = p;
        cfg.numExperts = 150;
        cfg.batch = batch;
        cfg.outputTokens = 20;
        cfg.requests = 100;
        return ServingSimulator(cfg).run().perBatch.total();
    };

    // Paper Table V: BS=8, 20 tokens: 6.6x vs DGX A100, 3.7x vs H100.
    double rdu8 = total(Platform::Sn40l, 8);
    double a8 = total(Platform::DgxA100, 8);
    double h8 = total(Platform::DgxH100, 8);
    EXPECT_NEAR(a8 / rdu8, 6.6, 1.5);
    EXPECT_NEAR(h8 / rdu8, 3.7, 1.0);
}

TEST(Serving, SwitchShareGrowsWithExpertCount)
{
    auto share = [](int experts) {
        ServingConfig cfg;
        cfg.platform = Platform::DgxA100;
        cfg.numExperts = experts;
        cfg.requests = 100;
        return ServingSimulator(cfg).run().perBatch.switchShare();
    };
    double small = share(30);
    double big = share(140);
    EXPECT_LT(small, big);
    EXPECT_GT(big, 0.5); // switching dominates on DGX (Fig 1)
}

TEST(Serving, ZipfRoutingReducesSwitching)
{
    ServingConfig cfg;
    cfg.platform = Platform::Sn40l;
    cfg.numExperts = 150;
    cfg.requests = 200;

    cfg.routing = RoutingDistribution::Uniform;
    double uniform = ServingSimulator(cfg).run().missRate;
    cfg.routing = RoutingDistribution::Zipf;
    double zipf = ServingSimulator(cfg).run().missRate;
    EXPECT_LT(zipf, uniform * 0.8);
}

TEST(Footprint, PaperAnchors)
{
    double expert = models::LlmConfig::llama2_7b().weightBytes();
    arch::NodeConfig node = arch::NodeConfig::sn40lNode(8);
    baseline::DgxConfig dgx = baseline::DgxConfig::dgxA100();

    // 850 experts: one SN40L node vs 19 DGX nodes (Section VI-C).
    FootprintPlan sn = sn40lFootprint(850, expert, node);
    FootprintPlan dg = dgxFootprint(850, expert, dgx);
    EXPECT_EQ(sn.nodes, 1);
    EXPECT_EQ(dg.nodes, 19);

    // Monotone non-decreasing in expert count.
    int last = 0;
    for (int n = 10; n <= 890; n += 40) {
        int nodes = dgxFootprint(n, expert, dgx).nodes;
        EXPECT_GE(nodes, last);
        last = nodes;
    }
}

TEST(Footprint, RejectsImpossiblePlans)
{
    arch::NodeConfig node = arch::NodeConfig::sn40lNode(8);
    EXPECT_THROW(sn40lFootprint(0, 1e9, node), sim::FatalError);
    EXPECT_THROW(sn40lFootprint(1, 1e15, node), sim::FatalError);
}

/**
 * @file
 * Tests for the parallel sweep runner, the generic LRU cache, and the
 * cost-model memoization layer.
 */

#include <gtest/gtest.h>

#include <string>

#include "coe/cost_cache.h"
#include "coe/sweep.h"
#include "models/transformer_builder.h"
#include "util/lru_cache.h"

using namespace sn40l;
using namespace sn40l::coe;

// ----------------------------------------------------------- LruCache

TEST(LruCache, EvictsLeastRecentlyUsed)
{
    util::LruCache<std::string, int> lru(2);
    lru.insert("a", 1);
    lru.insert("b", 2);
    EXPECT_NE(lru.find("a"), nullptr); // refresh: a is now MRU
    lru.insert("c", 3);                // evicts b
    EXPECT_EQ(lru.find("b"), nullptr);
    ASSERT_NE(lru.find("a"), nullptr);
    EXPECT_EQ(*lru.find("a"), 1);
    ASSERT_NE(lru.find("c"), nullptr);
    EXPECT_EQ(*lru.find("c"), 3);
    EXPECT_EQ(lru.size(), 2u);
}

TEST(LruCache, InsertOverwritesAndCountsHitsMisses)
{
    util::LruCache<int, double> lru(4);
    EXPECT_EQ(lru.find(7), nullptr);
    lru.insert(7, 1.0);
    lru.insert(7, 2.0);
    ASSERT_NE(lru.find(7), nullptr);
    EXPECT_DOUBLE_EQ(*lru.find(7), 2.0);
    EXPECT_EQ(lru.size(), 1u);
    EXPECT_EQ(lru.misses(), 1u);
    EXPECT_EQ(lru.hits(), 2u);
}

// ------------------------------------------------------ CostModelCache

TEST(CostModelCache, MemoizesByWorkloadShape)
{
    CostModelCache &cache = CostModelCache::instance();
    cache.clear();

    models::WorkloadSpec spec;
    spec.model = models::LlmConfig::llama2_7b();
    spec.phase = models::Phase::Decode;
    spec.batch = 4;
    spec.seqLen = 2048;
    spec.tensorParallel = 8;

    int computes = 0;
    auto compute = [&]() {
        ++computes;
        return 0.125;
    };
    std::string key = workloadCostKey("test-ctx", spec);
    EXPECT_DOUBLE_EQ(cache.seconds(key, compute), 0.125);
    EXPECT_DOUBLE_EQ(cache.seconds(key, compute), 0.125);
    EXPECT_EQ(computes, 1);

    // A different shape (or context) is a different entry.
    spec.batch = 8;
    EXPECT_DOUBLE_EQ(
        cache.seconds(workloadCostKey("test-ctx", spec),
                      [&]() { return 0.25; }),
        0.25);
    EXPECT_DOUBLE_EQ(
        cache.seconds(workloadCostKey("other-ctx", spec),
                      [&]() { return 0.5; }),
        0.5);
    cache.clear();
}

TEST(CostModelCache, KeyCoversModelArchitectureNotJustName)
{
    models::WorkloadSpec a;
    a.model = models::LlmConfig::llama2_7b();
    models::WorkloadSpec b = a;
    b.model.numLayers += 1; // same name, mutated architecture
    EXPECT_NE(workloadCostKey("ctx", a), workloadCostKey("ctx", b));
}

TEST(CostModelCache, ServingSimulatorPricesEachShapeOnce)
{
    CostModelCache::instance().clear();

    ServingConfig cfg;
    cfg.mode = ServingMode::EventDriven;
    cfg.batch = 4;
    cfg.streamRequests = 32;
    cfg.arrivalRatePerSec = 16.0;
    cfg.seed = 3;

    ServingSimulator first(cfg);
    std::uint64_t misses_after_first = CostModelCache::instance().misses();
    EXPECT_GT(misses_after_first, 0u);

    // Same shape again: all graph pricing must come from the memo.
    ServingSimulator second(cfg);
    EXPECT_EQ(CostModelCache::instance().misses(), misses_after_first);
    EXPECT_GT(CostModelCache::instance().hits(), 0u);

    // And the memoized costs are the same costs.
    EXPECT_DOUBLE_EQ(first.phaseCosts().prefillSeconds,
                     second.phaseCosts().prefillSeconds);
    EXPECT_DOUBLE_EQ(first.phaseCosts().routerSeconds,
                     second.phaseCosts().routerSeconds);
    CostModelCache::instance().clear();
}

// ------------------------------------------------------------- Sweep

TEST(SweepGrid, CartesianPointsInGridOrder)
{
    SweepGrid grid;
    grid.base.mode = ServingMode::EventDriven;
    grid.expertCounts = {50, 100};
    grid.arrivalRates = {8.0};
    grid.batchSizes = {1, 8};
    grid.policies = {SchedulerPolicy::Fifo};
    grid.seeds = {1, 2, 3};

    std::vector<SweepPoint> points = grid.points();
    ASSERT_EQ(points.size(), 12u);
    EXPECT_EQ(points.front().cfg.numExperts, 50);
    EXPECT_EQ(points.front().cfg.batch, 1);
    EXPECT_EQ(points.front().cfg.seed, 1u);
    // Seeds are innermost, experts outermost.
    EXPECT_EQ(points[1].cfg.seed, 2u);
    EXPECT_EQ(points[3].cfg.batch, 8);
    EXPECT_EQ(points[6].cfg.numExperts, 100);
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].index, static_cast<int>(i));
}

TEST(SweepGrid, EmptyAxesInheritBaseConfig)
{
    SweepGrid grid;
    grid.base.numExperts = 42;
    grid.base.seed = 9;
    std::vector<SweepPoint> points = grid.points();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].cfg.numExperts, 42);
    EXPECT_EQ(points[0].cfg.seed, 9u);
}

TEST(SweepGrid, ClusterAxesLiftPointsOntoClusters)
{
    SweepGrid grid;
    grid.base.mode = ServingMode::EventDriven;
    grid.base.arrivalRatePerSec = 8.0;
    grid.nodeCounts = {1, 4};
    grid.placements = {PlacementPolicy::FullReplication,
                       PlacementPolicy::BalancedPartition};
    grid.dispatch = DispatchPolicy::LeastOutstanding;
    grid.seeds = {1, 2};

    std::vector<SweepPoint> points = grid.points();
    ASSERT_EQ(points.size(), 8u);
    // Nodes outermost, then placement, seeds innermost.
    EXPECT_EQ(points[0].nodes, 1);
    EXPECT_EQ(points[0].placement, PlacementPolicy::FullReplication);
    EXPECT_EQ(points[2].placement, PlacementPolicy::BalancedPartition);
    EXPECT_EQ(points[4].nodes, 4);
    EXPECT_EQ(points[4].dispatch, DispatchPolicy::LeastOutstanding);
    // Offered load scales with node count so points stay comparable.
    EXPECT_DOUBLE_EQ(points[0].cfg.arrivalRatePerSec, 8.0);
    EXPECT_DOUBLE_EQ(points[4].cfg.arrivalRatePerSec, 32.0);
    EXPECT_EQ(points[4].label.rfind("n4/partition/", 0), std::string::npos);
    EXPECT_EQ(points[6].label.rfind("n4/partition/", 0), 0u);

    // Classic grids stay single-node.
    SweepGrid classic;
    ASSERT_EQ(classic.points().size(), 1u);
    EXPECT_EQ(classic.points()[0].nodes, 0);
}

TEST(Sweep, ClusterPointsParallelMatchesSequential)
{
    SweepGrid grid;
    grid.base.mode = ServingMode::EventDriven;
    grid.base.streamRequests = 96;
    grid.base.routing = RoutingDistribution::Zipf;
    grid.base.zipfS = 1.0;
    grid.base.arrivalRatePerSec = 12.0;
    grid.nodeCounts = {1, 2, 4};
    grid.placements = {PlacementPolicy::FullReplication,
                       PlacementPolicy::ReplicateHotPartitionCold};
    grid.dispatch = DispatchPolicy::ExpertAffinity;
    grid.seeds = {1, 2};

    std::vector<SweepPoint> points = grid.points();
    ASSERT_EQ(points.size(), 12u);

    std::vector<SweepPointResult> seq = runSweep(points, 1);
    std::vector<SweepPointResult> par = runSweep(points, 4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        const StreamMetrics &a = seq[i].result.stream;
        const StreamMetrics &b = par[i].result.stream;
        EXPECT_DOUBLE_EQ(a.p95LatencySeconds, b.p95LatencySeconds);
        EXPECT_DOUBLE_EQ(a.throughputRequestsPerSec,
                         b.throughputRequestsPerSec);
        EXPECT_DOUBLE_EQ(seq[i].result.missRate, par[i].result.missRate);
        EXPECT_DOUBLE_EQ(seq[i].loadImbalance, par[i].loadImbalance);
        EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
        EXPECT_EQ(seq[i].expertReplicas, par[i].expertReplicas);
    }
}

TEST(Sweep, ParallelMatchesSequentialBitForBit)
{
    SweepGrid grid;
    grid.base.mode = ServingMode::EventDriven;
    grid.base.streamRequests = 64;
    grid.base.routing = RoutingDistribution::Zipf;
    grid.base.zipfS = 1.1;
    grid.expertCounts = {80, 150};
    grid.arrivalRates = {8.0, 24.0};
    grid.policies = {SchedulerPolicy::Fifo,
                     SchedulerPolicy::ExpertAffinity};
    grid.seeds = {1, 2};

    std::vector<SweepPoint> points = grid.points();
    ASSERT_EQ(points.size(), 16u);

    std::vector<SweepPointResult> seq = runSweep(points, 1);
    std::vector<SweepPointResult> par = runSweep(points, 4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        const StreamMetrics &a = seq[i].result.stream;
        const StreamMetrics &b = par[i].result.stream;
        EXPECT_EQ(par[i].point.index, static_cast<int>(i));
        EXPECT_DOUBLE_EQ(a.p50LatencySeconds, b.p50LatencySeconds);
        EXPECT_DOUBLE_EQ(a.p95LatencySeconds, b.p95LatencySeconds);
        EXPECT_DOUBLE_EQ(a.p99LatencySeconds, b.p99LatencySeconds);
        EXPECT_DOUBLE_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
        EXPECT_DOUBLE_EQ(a.throughputRequestsPerSec,
                         b.throughputRequestsPerSec);
        EXPECT_DOUBLE_EQ(a.meanQueueDepth, b.meanQueueDepth);
        EXPECT_DOUBLE_EQ(seq[i].result.missRate, par[i].result.missRate);
        EXPECT_EQ(a.batches, b.batches);
        EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    }
}

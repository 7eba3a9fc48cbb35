/**
 * @file
 * Tests for the three-tier MemorySystem facade (DMA pool scheduling,
 * priorities, cancellation, bandwidth contention) and the async
 * CoeRuntime protocol it drives (pinning, in-flight protection,
 * speculative reservations), plus the event-driven serving path that
 * ties them together.
 */

#include <gtest/gtest.h>

#include <vector>

#include "coe/cluster.h"
#include "coe/coe_runtime.h"
#include "mem/memory_system.h"
#include "sim/log.h"

using namespace sn40l;
using namespace sn40l::coe;
using sim::EventQueue;
using sim::Tick;

namespace {

/** One-channel tiers make serialization arithmetic exact. */
mem::MemorySystemConfig
narrowConfig(int engines = 1)
{
    mem::MemorySystemConfig cfg;
    cfg.ddr.channels = 1;
    cfg.ddr.perChannelBandwidth = 100e9;
    cfg.hbm.channels = 1;
    cfg.hbm.perChannelBandwidth = 1000e9;
    cfg.dmaEngines = engines;
    return cfg;
}

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

ServingConfig
asyncStreamConfig(bool prefetch)
{
    ServingConfig cfg;
    cfg.platform = Platform::Sn40l;
    cfg.numExperts = 150;
    cfg.batch = 1;
    cfg.routing = RoutingDistribution::Zipf;
    cfg.streamRequests = 300;
    cfg.arrivalRatePerSec = 24.0;
    cfg.seed = 3;
    cfg.predictivePrefetch = prefetch;
    return cfg;
}

} // namespace

TEST(MemorySystem, ValidatesConfig)
{
    EventQueue eq;
    mem::MemorySystemConfig cfg = narrowConfig();
    cfg.dmaEngines = 0;
    EXPECT_THROW(mem::MemorySystem(eq, "m", cfg), sim::FatalError);
    cfg = narrowConfig();
    cfg.ddr.channels = 0;
    EXPECT_THROW(mem::MemorySystem(eq, "m", cfg), sim::FatalError);
    cfg = narrowConfig();
    cfg.hbm.perChannelBandwidth = 0.0;
    EXPECT_THROW(mem::MemorySystem(eq, "m", cfg), sim::FatalError);
}

TEST(MemorySystem, LoadPacedBySlowerTier)
{
    EventQueue eq;
    mem::MemorySystem m(eq, "m", narrowConfig());

    Tick done = -1;
    m.load(0, 0, 1e9, mem::TransferPriority::Demand,
           [&]() { done = eq.now(); });
    eq.run();
    // 1 GB at the DDR tier's 100 GB/s: 10 ms; the HBM side is 10x
    // faster and hides entirely.
    EXPECT_EQ(done, sim::transferTicks(1e9, 100e9));
    EXPECT_EQ(m.loadsInFlight(), 0);
    EXPECT_EQ(m.queuedLoads(), 0);
}

TEST(MemorySystem, DemandJumpsAheadOfQueuedPrefetch)
{
    EventQueue eq;
    mem::MemorySystem m(eq, "m", narrowConfig(/*engines=*/1));

    std::vector<char> order;
    // A grabs the single engine; B and C queue behind it.
    m.load(0, 0, 1e9, mem::TransferPriority::Prefetch,
           [&]() { order.push_back('A'); });
    m.load(0, 0, 1e9, mem::TransferPriority::Prefetch,
           [&]() { order.push_back('B'); });
    m.load(0, 0, 1e9, mem::TransferPriority::Demand,
           [&]() { order.push_back('C'); });
    eq.run();

    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 'A');
    EXPECT_EQ(order[1], 'C'); // demand drained before the prefetch
    EXPECT_EQ(order[2], 'B');
}

TEST(MemorySystem, CancelDropsQueuedLoadOnly)
{
    EventQueue eq;
    mem::MemorySystem m(eq, "m", narrowConfig(/*engines=*/1));

    bool first_done = false, second_done = false;
    mem::TransferId first = m.load(0, 0, 1e9,
                                   mem::TransferPriority::Prefetch,
                                   [&]() { first_done = true; });
    mem::TransferId second = m.load(0, 0, 1e9,
                                    mem::TransferPriority::Prefetch,
                                    [&]() { second_done = true; });

    EXPECT_FALSE(m.cancel(first)); // already issued on the engine
    EXPECT_EQ(m.queuedLoads(), 1);
    EXPECT_TRUE(m.cancel(second)); // still queued
    EXPECT_EQ(m.queuedLoads(), 0);

    eq.run();
    EXPECT_TRUE(first_done);
    EXPECT_FALSE(second_done); // cancelled callback never fires
}

TEST(MemorySystem, PromoteMovesPrefetchToDemandQueue)
{
    EventQueue eq;
    mem::MemorySystem m(eq, "m", narrowConfig(/*engines=*/1));

    std::vector<char> order;
    mem::TransferId busy = m.load(0, 0, 1e9,
                                  mem::TransferPriority::Prefetch,
                                  [&]() { order.push_back('X'); });
    mem::TransferId slow = m.load(0, 0, 1e9,
                                  mem::TransferPriority::Prefetch,
                                  [&]() { order.push_back('P'); });
    m.load(0, 0, 1e9, mem::TransferPriority::Prefetch,
           [&]() { order.push_back('Q'); });

    EXPECT_FALSE(m.promote(busy)); // issued: nothing to move
    EXPECT_TRUE(m.promote(slow));
    EXPECT_FALSE(m.promote(slow)); // now demand, not prefetch
    eq.run();

    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 'X');
    EXPECT_EQ(order[1], 'P'); // promoted ahead of the other speculation
    EXPECT_EQ(order[2], 'Q');
}

TEST(MemorySystem, ConcurrentLoadsSumToChannelBandwidth)
{
    // Two engines over a single DDR channel: the copies overlap on
    // the engines but serialize on the channel, so moving 2 GB takes
    // exactly the single-channel time for 2 GB — bandwidth is
    // conserved, not duplicated.
    EventQueue eq;
    mem::MemorySystem m(eq, "m", narrowConfig(/*engines=*/2));

    Tick last = 0;
    for (int i = 0; i < 2; ++i)
        m.load(0, 0, 1e9, mem::TransferPriority::Demand,
               [&]() { last = eq.now(); });
    eq.run();
    EXPECT_EQ(last, sim::transferTicks(2e9, 100e9));
}

TEST(MemorySystem, TrafficContendsWithExpertStreaming)
{
    // Expert DMA writes and decode traffic share the HBM channels:
    // 1 GB of traffic behind a load's 1 GB HBM write drains at the
    // channel's 1 TB/s, one after the other.
    EventQueue eq;
    mem::MemorySystem m(eq, "m", narrowConfig());

    m.load(0, 0, 1e9, mem::TransferPriority::Demand, nullptr);
    Tick traffic_done = m.traffic(1e9, eq.now());
    eq.run();

    Tick hbm_share = sim::transferTicks(1e9, 1000e9);
    EXPECT_EQ(traffic_done, 2 * hbm_share);
}

namespace {

/** Time one idle DMA load of @p bytes takes on a @p cfg system. */
Tick
idleLoadTicks(const mem::MemorySystemConfig &cfg, double bytes)
{
    EventQueue eq;
    mem::MemorySystem m(eq, "m", cfg);
    Tick done = -1;
    m.load(0, 0, bytes, mem::TransferPriority::Demand,
           [&]() { done = eq.now(); });
    eq.run();
    return done;
}

} // namespace

TEST(PlatformMemory, NodeAggregateDdrToHbmExceedsOneTerabytePerSecond)
{
    // Paper: "Models are loaded from DDR to HBM at over 1 TB/s in a
    // single SN40L Node."
    mem::MemorySystemConfig node = platformMemoryConfig(ServingConfig{});

    double bytes = 13.48e9; // one Llama2-7B expert
    Tick est = node.copyTicks(bytes);
    double rate = bytes / sim::toSeconds(est);
    EXPECT_GT(rate, 1e12);

    // The DES copy agrees with the estimate.
    EventQueue eq;
    EXPECT_EQ(mem::MemorySystem(eq, "m", node).estimateLoad(bytes), est);
    Tick done = idleLoadTicks(node, bytes);
    EXPECT_NEAR(static_cast<double>(done), static_cast<double>(est),
                static_cast<double>(est) * 0.01 + 2e6);
}

TEST(PlatformMemory, HostPathIsMuchSlowerThanDdrPath)
{
    // The same node with its experts in host DRAM: every copy crosses
    // the single host link instead of the sockets' DDR channels.
    mem::MemorySystemConfig node = platformMemoryConfig(ServingConfig{});
    mem::MemorySystemConfig host = node;
    host.ddr.channels = 1;
    host.ddr.perChannelBandwidth = arch::ChipConfig::sn40l().pcieBandwidth;
    host.ddr.efficiency = 1.0;

    double bytes = 13.48e9;
    EXPECT_GT(idleLoadTicks(host, bytes), 10 * idleLoadTicks(node, bytes));
}

// ---------------------------------------------------------------
// Async CoeRuntime protocol

TEST(CoeRuntimeAsync, PinnedAndLoadingExpertsSurviveEvictionPressure)
{
    ExpertZoo zoo = tinyZoo(4, 100.0);
    CoeRuntime runtime(zoo, 250); // two experts fit

    AsyncActivation a0 = runtime.activateAsync(0);
    EXPECT_FALSE(a0.hit);
    EXPECT_DOUBLE_EQ(a0.bytesToLoad, 100.0);
    EXPECT_EQ(runtime.state(0), ExpertState::Loading);
    runtime.pin(0);

    AsyncActivation a1 = runtime.activateAsync(1);
    EXPECT_FALSE(a1.hit);
    EXPECT_NE(a1.hbmOffset, a0.hbmOffset);

    // Expert 0 is pinned, expert 1 is mid-transfer: nothing may be
    // evicted to make room for a third expert.
    EXPECT_THROW(runtime.activateAsync(2), sim::FatalError);

    // Once 1 lands (unpinned, Loaded) it becomes the victim; the
    // pinned-and-loading 0 is never touched.
    runtime.completeLoad(1);
    AsyncActivation a2 = runtime.activateAsync(2);
    EXPECT_EQ(a2.evictions, 1);
    EXPECT_TRUE(runtime.resident(0));
    EXPECT_FALSE(runtime.resident(1));
    EXPECT_EQ(runtime.state(0), ExpertState::Loading);

    // Double completion or unpinning below zero is a simulator bug.
    runtime.completeLoad(0);
    EXPECT_THROW(runtime.completeLoad(0), sim::SimPanic);
    runtime.unpin(0);
    EXPECT_THROW(runtime.unpin(0), sim::SimPanic);
}

TEST(CoeRuntimeAsync, SyncActivateRejectsInFlightExperts)
{
    // Mixing the protocols on an expert mid-transfer would let the
    // synchronous path claim a hit for data that is not in HBM yet.
    ExpertZoo zoo = tinyZoo(3, 100.0);
    CoeRuntime runtime(zoo, 250);
    runtime.beginPrefetch(0);
    EXPECT_THROW(runtime.activate(0), sim::SimPanic);
    runtime.activateAsync(1);
    EXPECT_THROW(runtime.activate(1), sim::SimPanic);
    runtime.completeLoad(1);
    EXPECT_TRUE(runtime.activate(1).hit);
}

TEST(CoeRuntimeAsync, ActivationWaitsOnInFlightTransfer)
{
    ExpertZoo zoo = tinyZoo(3, 100.0);
    CoeRuntime runtime(zoo, 250);

    runtime.activateAsync(0);
    AsyncActivation again = runtime.activateAsync(0);
    EXPECT_FALSE(again.hit);
    EXPECT_TRUE(again.pending); // wait on the first transfer
    EXPECT_DOUBLE_EQ(again.bytesToLoad, 0.0);

    runtime.completeLoad(0);
    AsyncActivation loaded = runtime.activateAsync(0);
    EXPECT_TRUE(loaded.hit);
    EXPECT_FALSE(loaded.pending);
}

TEST(CoeRuntimeAsync, PrefetchCancellationFreesReservedBytes)
{
    ExpertZoo zoo = tinyZoo(4, 100.0);
    CoeRuntime runtime(zoo, 250);

    std::int64_t free0 = runtime.freeRegionBytes();
    auto p = runtime.beginPrefetch(0);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(p->pending);
    EXPECT_EQ(runtime.state(0), ExpertState::PrefetchReserved);
    EXPECT_EQ(runtime.freeRegionBytes(), free0 - 100);

    runtime.cancelPrefetch(0);
    EXPECT_FALSE(runtime.resident(0));
    EXPECT_EQ(runtime.freeRegionBytes(), free0);

    // Speculation never evicts: once the region is full of loaded
    // experts, beginPrefetch declines instead of displacing them.
    runtime.activateAsync(1);
    runtime.activateAsync(2);
    EXPECT_FALSE(runtime.beginPrefetch(3).has_value());
    // ...and prefetching a resident expert is meaningless.
    EXPECT_FALSE(runtime.beginPrefetch(1).has_value());
}

TEST(CoeRuntimeAsync, EvictionPressureCancelsReservationsThroughHook)
{
    ExpertZoo zoo = tinyZoo(4, 100.0);
    CoeRuntime runtime(zoo, 250);

    int hook_calls = 0;
    runtime.setPrefetchCancelHook([&](int expert) {
        ++hook_calls;
        EXPECT_EQ(expert, 0);
        return true; // transfer was still queued; cancellation ok
    });

    runtime.beginPrefetch(0);
    runtime.activateAsync(1);
    runtime.completeLoad(1);

    // Demand for two more experts: the loaded expert 1 is MRU, so the
    // cold-end reservation for 0 is reclaimed first.
    AsyncActivation a2 = runtime.activateAsync(2);
    EXPECT_EQ(hook_calls, 1);
    EXPECT_EQ(a2.evictions, 0); // cancellation, not an eviction
    EXPECT_FALSE(runtime.resident(0));
    EXPECT_TRUE(runtime.resident(1));
    EXPECT_GT(runtime.stats().get("prefetch_cancels"), 0.0);
}

TEST(CoeRuntimeAsync, IssuedPrefetchBecomesLoadingInsteadOfDying)
{
    ExpertZoo zoo = tinyZoo(4, 100.0);
    CoeRuntime runtime(zoo, 250);

    runtime.setPrefetchCancelHook([](int) {
        return false; // DMA already streaming: cannot cancel
    });

    runtime.beginPrefetch(0);
    runtime.activateAsync(1);
    runtime.completeLoad(1);

    // Pressure cannot reclaim the streaming speculation, so it must
    // evict the loaded expert 1 instead; 0 survives as Loading.
    AsyncActivation a2 = runtime.activateAsync(2);
    EXPECT_EQ(a2.evictions, 1);
    EXPECT_TRUE(runtime.resident(0));
    EXPECT_EQ(runtime.state(0), ExpertState::Loading);
    EXPECT_FALSE(runtime.resident(1));
}

// ---------------------------------------------------------------
// Event-driven serving on the real memory system

TEST(AsyncServing, SameSeedGivesIdenticalServingResult)
{
    ServingConfig cfg = asyncStreamConfig(/*prefetch=*/true);
    cfg.streamRequests = 200;
    ServingResult a = ServingSimulator(cfg).run();
    ServingResult b = ServingSimulator(cfg).run();

    EXPECT_DOUBLE_EQ(a.stream.p50LatencySeconds, b.stream.p50LatencySeconds);
    EXPECT_DOUBLE_EQ(a.stream.p95LatencySeconds, b.stream.p95LatencySeconds);
    EXPECT_DOUBLE_EQ(a.stream.p99LatencySeconds, b.stream.p99LatencySeconds);
    EXPECT_DOUBLE_EQ(a.stream.throughputRequestsPerSec,
                     b.stream.throughputRequestsPerSec);
    EXPECT_DOUBLE_EQ(a.stream.meanSwitchStallSeconds,
                     b.stream.meanSwitchStallSeconds);
    EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
    EXPECT_EQ(a.stream.prefetchesIssued, b.stream.prefetchesIssued);
    EXPECT_EQ(a.stream.prefetchHits, b.stream.prefetchHits);
}

TEST(AsyncServing, ExpertLoadsAreDmaTransfersNotClosedForm)
{
    ServingConfig cfg = asyncStreamConfig(/*prefetch=*/false);
    cfg.streamRequests = 150;
    ServingSimulator sim(cfg);
    ServingResult r = sim.run();

    // Every miss streamed through the DMA pool...
    EXPECT_GT(sim.stats().get("dma_loads_issued"), 0.0);
    EXPECT_DOUBLE_EQ(sim.stats().get("dma_loads_issued"),
                     sim.stats().get("misses"));
    // ...moving the experts' actual bytes.
    double expert_bytes = cfg.expertBase.weightBytes();
    EXPECT_NEAR(sim.stats().get("dma_load_bytes"),
                sim.stats().get("misses") * expert_bytes,
                expert_bytes * 0.01);
    // Stalls are measured per batch, bounded by the real copy time.
    EXPECT_EQ(sim.stallSamples().count(),
              static_cast<std::size_t>(r.stream.batches));
    EXPECT_GT(r.stream.p95SwitchStallSeconds, 0.0);
    EXPECT_LT(r.stream.p95SwitchStallSeconds,
              sim.phaseCosts().switchSeconds);
}

TEST(AsyncServing, SpeculativePrefetchCutsTailLatencyAndMisses)
{
    // The acceptance scenario: Zipf routing over 150 experts, batch 1,
    // saturating load. Speculation must strictly help.
    ServingResult off = ServingSimulator(asyncStreamConfig(false)).run();
    ServingResult on = ServingSimulator(asyncStreamConfig(true)).run();

    EXPECT_LT(on.stream.p95LatencySeconds, off.stream.p95LatencySeconds);
    EXPECT_LT(on.missRate, off.missRate);
    EXPECT_LT(on.stream.meanSwitchStallSeconds,
              off.stream.meanSwitchStallSeconds);
    EXPECT_GT(on.stream.prefetchesIssued, 0);
    EXPECT_GT(on.stream.prefetchHits, 0);
    EXPECT_EQ(off.stream.prefetchesIssued, 0);
}

TEST(AsyncServing, RejectsImpossibleMemoryConfigs)
{
    ServingConfig cfg = asyncStreamConfig(false);
    cfg.dmaEngines = 0;
    EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);

    cfg = asyncStreamConfig(false);
    cfg.prefetchDepth = -1;
    EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);

    cfg = asyncStreamConfig(false);
    cfg.expertRegionBytes = -1;
    EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);

    // A region that cannot hold a pinned batch deadlocks the async
    // runtime and is rejected up front.
    cfg = asyncStreamConfig(false);
    cfg.batch = 8;
    cfg.expertRegionBytes = static_cast<std::int64_t>(
        2.5 * cfg.expertBase.weightBytes());
    EXPECT_THROW(ServingSimulator(cfg).run(), sim::FatalError);
}

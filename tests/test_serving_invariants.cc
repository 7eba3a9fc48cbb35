/**
 * @file
 * Property/invariant tests: randomized serving and cluster
 * configurations (seeded, 200 trials total) asserting the
 * conservation laws the simulators must uphold regardless of
 * workload, scheduler, placement, or SLO knobs:
 *
 *  - arrivals == completions + shed + lost once the event stream
 *    drains (in-flight is zero at drain by the drivers' own asserts;
 *    lost is only ever non-zero under injected crash/flaky faults,
 *    and retries/hedges never double-count a request) — including
 *    trials that route all cluster traffic over the interconnect
 *    model, with and without a link-degrade fault, and trials with
 *    speculative decoding (incl. the gamma == 0 and accept-rate 0/1
 *    corners) and the PEFT adapter zoo (with and without churn)
 *    enabled;
 *  - no request completes before it arrives (latencies non-negative,
 *    checked per sample);
 *  - per-node dispatched/completed/miss/shed counts sum to the
 *    cluster-wide totals;
 *  - merged sim::Distribution count equals the sum of its parts.
 *
 * Runs under ASan and TSan in CI via the `invariant` ctest label.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "coe/cluster.h"
#include "coe/serving.h"
#include "coe/workload.h"
#include "sim/rng.h"
#include "sim/stats.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

constexpr int kSingleNodeTrials = 110;
constexpr int kClusterTrials = 60;
constexpr int kMergeTrials = 30;

/**
 * Draw a randomized-but-valid EventDriven serving config. All shapes
 * keep the default prompt/token lengths at the *pricing* level, so
 * the process-wide cost memo serves every trial after the first few.
 */
ServingConfig
randomServingConfig(sim::Rng &rng, int trial)
{
    ServingConfig cfg;
    cfg.mode = ServingMode::EventDriven;
    cfg.platform = Platform::Sn40l;
    cfg.numExperts = 20 + static_cast<int>(rng.uniformInt(80));
    cfg.batch = 1 + static_cast<int>(rng.uniformInt(8));
    cfg.streamRequests = 40 + static_cast<int>(rng.uniformInt(80));
    cfg.arrivalRatePerSec = 4.0 + static_cast<double>(rng.uniformInt(96));
    cfg.seed = static_cast<std::uint64_t>(trial) * 7919u + 13u;
    cfg.scheduler = rng.uniformInt(2) == 0
        ? SchedulerPolicy::Fifo
        : SchedulerPolicy::ExpertAffinity;
    switch (rng.uniformInt(3)) {
      case 0: cfg.routing = RoutingDistribution::Uniform; break;
      case 1:
        cfg.routing = RoutingDistribution::Zipf;
        cfg.zipfS = 0.8 + 0.1 * static_cast<double>(rng.uniformInt(6));
        break;
      default: cfg.routing = RoutingDistribution::RoundRobin; break;
    }
    if (rng.uniformInt(4) == 0) {
        cfg.predictivePrefetch = true;
        cfg.prefetchDepth = 1 + static_cast<int>(rng.uniformInt(4));
    }

    // Workload scenario roulette.
    switch (rng.uniformInt(5)) {
      case 0: // legacy open loop
        break;
      case 1: // closed loop
        cfg.arrival = ArrivalProcess::ClosedLoop;
        cfg.clients = 1 + static_cast<int>(rng.uniformInt(24));
        cfg.thinkSeconds =
            0.02 * static_cast<double>(rng.uniformInt(10));
        break;
      case 2: // tenant mix
        cfg.workload.tenants = 2 + static_cast<int>(rng.uniformInt(4));
        break;
      case 3: // conversational sessions
        cfg.workload.tenants = 1 + static_cast<int>(rng.uniformInt(3));
        cfg.workload.sessionFollowProb =
            0.2 + 0.1 * static_cast<double>(rng.uniformInt(6));
        cfg.workload.sessionThinkSeconds =
            0.05 * static_cast<double>(rng.uniformInt(8));
        break;
      default: // bursty
        cfg.workload.shape.burstFactor =
            2.0 + static_cast<double>(rng.uniformInt(4));
        cfg.workload.shape.burstEverySeconds = 4.0;
        cfg.workload.shape.burstSeconds = 1.0;
        break;
    }
    // SLO admission on a third of trials (any workload kind).
    if (rng.uniformInt(3) == 0)
        cfg.workload.sloSeconds =
            0.5 + 0.25 * static_cast<double>(rng.uniformInt(12));

    // Spec-decode / zoo roulette: draft/verify decode shapes and tiny
    // LoRA adapters must uphold the same conservation laws as plain
    // serving. All draws are unconditional (RNG-stream-stability
    // discipline); the sweeps deliberately include the degenerate
    // corners gamma == 0 and acceptRate in {0, 1}.
    std::uint64_t specDraw = rng.uniformInt(3);
    std::uint64_t gammaDraw = rng.uniformInt(6);
    std::uint64_t acceptDraw = rng.uniformInt(11);
    std::uint64_t zooDraw = rng.uniformInt(3);
    std::uint64_t churnDraw = rng.uniformInt(3);
    if (specDraw == 0) {
        cfg.specDecode.enabled = true;
        cfg.specDecode.gamma = static_cast<int>(gammaDraw); // 0..5
        cfg.specDecode.acceptRate =
            0.1 * static_cast<double>(acceptDraw); // 0.0..1.0
        cfg.specDecode.draftRatio = 0.05;
    }
    if (zooDraw == 0) {
        cfg.zoo.enabled = true;
        cfg.zoo.rank = 16;
        if (churnDraw == 0)
            cfg.zoo.churnEverySeconds = 2.0;
    }
    return cfg;
}

} // namespace

TEST(ServingInvariants, RandomizedSingleNodeConservation)
{
    sim::Rng rng(0xC0FFEE);
    for (int trial = 0; trial < kSingleNodeTrials; ++trial) {
        ServingConfig cfg = randomServingConfig(rng, trial);
        SCOPED_TRACE("trial " + std::to_string(trial) + " seed " +
                     std::to_string(cfg.seed));

        ServingSimulator sim(cfg);
        ServingResult r = sim.run();
        ASSERT_FALSE(r.oom);
        const StreamMetrics &m = r.stream;

        // Conservation: every emitted request either completed or was
        // shed at admission; nothing is in flight after drain (the
        // driver's own simAsserts would have thrown otherwise).
        EXPECT_EQ(m.completed + m.shed,
                  static_cast<std::int64_t>(cfg.streamRequests));
        if (cfg.workload.sloSeconds == 0.0) {
            EXPECT_EQ(m.shed, 0);
        }
        // The chaos layer lives in the cluster hub; a single node has
        // no fault surface, so its chaos counters must stay zero.
        EXPECT_EQ(m.lost, 0);
        EXPECT_EQ(m.retried, 0);
        EXPECT_EQ(m.hedged, 0);

        // Causality: no request completes before it arrives.
        EXPECT_EQ(sim.latencySamples().count(),
                  static_cast<std::uint64_t>(m.completed));
        for (double sample : sim.latencySamples().samples())
            ASSERT_GE(sample, 0.0);

        // Order statistics are ordered; occupancy is bounded.
        EXPECT_LE(m.p50LatencySeconds, m.p95LatencySeconds);
        EXPECT_LE(m.p95LatencySeconds, m.p99LatencySeconds);
        EXPECT_LE(m.p99LatencySeconds, m.maxLatencySeconds);
        EXPECT_LE(m.meanBatchOccupancy,
                  static_cast<double>(cfg.batch) + 1e-12);

        // Hit/miss accounting covers every completion.
        EXPECT_DOUBLE_EQ(sim.stats().get("hits") +
                             sim.stats().get("misses"),
                         static_cast<double>(m.completed));
    }
}

TEST(ClusterInvariants, RandomizedClusterConservation)
{
    sim::Rng rng(0xBEEFCAFE);
    for (int trial = 0; trial < kClusterTrials; ++trial) {
        ClusterConfig cfg;
        cfg.nodes = 2 + static_cast<int>(rng.uniformInt(3));
        switch (rng.uniformInt(3)) {
          case 0: cfg.placement = PlacementPolicy::FullReplication; break;
          case 1:
            cfg.placement = PlacementPolicy::ReplicateHotPartitionCold;
            break;
          default:
            cfg.placement = PlacementPolicy::BalancedPartition;
            break;
        }
        switch (rng.uniformInt(3)) {
          case 0: cfg.dispatch = DispatchPolicy::RoundRobin; break;
          case 1: cfg.dispatch = DispatchPolicy::LeastOutstanding; break;
          default: cfg.dispatch = DispatchPolicy::ExpertAffinity; break;
        }
        cfg.node = randomServingConfig(rng, 1000 + trial);
        cfg.node.arrivalRatePerSec *= cfg.nodes;
        if (cfg.node.arrival != ArrivalProcess::ClosedLoop &&
            rng.uniformInt(3) == 0) {
            int node = static_cast<int>(
                rng.uniformInt(static_cast<std::uint64_t>(cfg.nodes)));
            cfg.actions.push_back({1.0, ActionKind::Drain, node});
            if (rng.uniformInt(2) == 0)
                cfg.actions.push_back({3.0, ActionKind::Rejoin, node});
        }
        // Scripted rate overrides on open-loop trials: the generator
        // must keep emitting the full budget through the change.
        if (cfg.node.arrival != ArrivalProcess::ClosedLoop &&
            rng.uniformInt(4) == 0) {
            ScheduledAction a;
            a.kind = ActionKind::RateOverride;
            a.atSeconds = 0.5;
            a.rateFactor =
                0.5 + 0.25 * static_cast<double>(rng.uniformInt(5));
            cfg.actions.push_back(a);
        }
        // Controller roulette: an autoscaler dueling with the drain
        // script must never lose a request either.
        if (rng.uniformInt(4) == 0) {
            cfg.controller.policy = rng.uniformInt(2) == 0
                ? ControllerPolicy::ReactiveThreshold
                : ControllerPolicy::TargetUtilization;
            cfg.controller.minNodes = 1;
            cfg.controller.tickSeconds = 0.25;
            if (rng.uniformInt(2) == 0)
                cfg.controller.hotExpertTrack = 3;
        }
        // Threads roulette: conservation must hold under the sharded
        // parallel run path too. Drawn unconditionally so the RNG
        // stream (and thus every trial config) stays identical across
        // safe and unsafe trials; applied only where the parallel
        // path is defined (no zero-lookahead feedback loops).
        int rouletteThreads = 1 + static_cast<int>(rng.uniformInt(4));
        bool parallelSafe =
            cfg.node.arrival != ArrivalProcess::ClosedLoop &&
            cfg.node.workload.sessionFollowProb == 0.0 &&
            cfg.dispatch != DispatchPolicy::LeastOutstanding;
        if (parallelSafe)
            cfg.threads = rouletteThreads; // ctor clamps to nodes
        // Fabric roulette: a third of trials route dispatch, drain,
        // and migration traffic over the interconnect model, on a
        // random topology with links thin enough to queue. The
        // network delays requests but never owns or drops one, so
        // every conservation law below must hold unchanged. Drawn
        // unconditionally (same RNG-stream-stability discipline).
        std::uint64_t fabricDraw = rng.uniformInt(3);
        std::uint64_t topoDraw = rng.uniformInt(3);
        if (fabricDraw == 0) {
            cfg.fabric.enabled = true;
            cfg.fabric.topology = topoDraw == 0 ? sim::Topology::Star
                : topoDraw == 1               ? sim::Topology::Mesh2D
                                              : sim::Topology::FatTree;
            cfg.fabric.linkGbps = 2.0;
        }
        // Fault roulette: the chaos layer must uphold the extended
        // conservation law no matter which fault fires or which
        // degraded-mode policy is armed. All draws are unconditional
        // (same RNG-stream-stability discipline as above); displacing
        // kinds (crash, flaky) remap to a straggler on trials with
        // closed-loop arrivals or generated sessions, which the
        // simulator rejects by construction (a lost request would
        // wedge the client pool / starve its follow-up); link-degrade
        // needs the fabric and remaps to a DMA stall without one.
        std::uint64_t faultOn = rng.uniformInt(3);
        std::uint64_t kindDraw = rng.uniformInt(5);
        int faultNode = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(cfg.nodes)));
        double faultAt =
            0.4 + 0.2 * static_cast<double>(rng.uniformInt(5));
        double faultDur = // 0 = fault is permanent, never heals
            0.5 * static_cast<double>(rng.uniformInt(4));
        std::uint64_t policyDraw = rng.uniformInt(4);
        bool chaos = faultOn == 0;
        if (chaos) {
            bool displacingOk =
                cfg.node.arrival != ArrivalProcess::ClosedLoop &&
                cfg.node.workload.sessionFollowProb == 0.0;
            FaultEvent e;
            e.atSeconds = faultAt;
            e.node = faultNode;
            e.durationSeconds = faultDur;
            switch (kindDraw) {
              case 0: e.kind = FaultKind::NodeCrash; break;
              case 1: e.kind = FaultKind::DmaStall; e.factor = 3.0; break;
              case 2: e.kind = FaultKind::Straggler; e.factor = 2.5; break;
              case 3: e.kind = FaultKind::FlakyNode; e.factor = 0.5; break;
              default:
                e.kind = FaultKind::LinkDegrade;
                e.factor = 20.0;
                break;
            }
            if (!displacingOk && (e.kind == FaultKind::NodeCrash ||
                                  e.kind == FaultKind::FlakyNode)) {
                e.kind = FaultKind::Straggler;
                e.factor = 2.5;
            }
            if (e.kind == FaultKind::LinkDegrade &&
                !cfg.fabric.enabled) {
                e.kind = FaultKind::DmaStall;
                e.factor = 3.0;
            }
            cfg.faults = std::make_shared<const std::vector<FaultEvent>>(
                std::vector<FaultEvent>{e});
            switch (policyDraw) {
              case 0: // no recovery: displaced work is counted lost
                break;
              case 1: // bounded retry, unbounded budget
                cfg.faultPolicy.retryMax = 2;
                cfg.faultPolicy.retryBackoffSeconds = 0.02;
                break;
              case 2: // tight cluster-wide retry budget
                cfg.faultPolicy.retryMax = 1;
                cfg.faultPolicy.retryBackoffSeconds = 0.02;
                cfg.faultPolicy.retryBudget = 5;
                break;
              default: // everything on: retry + hedge + brown-out
                cfg.faultPolicy.retryMax = 3;
                cfg.faultPolicy.retryBackoffSeconds = 0.01;
                cfg.faultPolicy.hedge = true;
                cfg.faultPolicy.brownoutDepth = 2.0;
                cfg.faultPolicy.brownoutPriorityMax = 1;
                cfg.faultPolicy.policyTickSeconds = 0.1;
                break;
            }
        }
        SCOPED_TRACE("trial " + std::to_string(trial) + " seed " +
                     std::to_string(cfg.node.seed) + " nodes " +
                     std::to_string(cfg.nodes) + " threads " +
                     std::to_string(cfg.threads) + " fabric " +
                     (cfg.fabric.enabled
                          ? sim::topologyName(cfg.fabric.topology)
                          : "off") +
                     " fault " +
                     (chaos ? std::string(faultKindName(
                                  (*cfg.faults)[0].kind)) +
                          "@n" + std::to_string(faultNode) +
                          " policy " + std::to_string(policyDraw)
                            : std::string("none")));

        ClusterSimulator sim(cfg);
        ClusterResult r = sim.run();
        ASSERT_FALSE(r.oom);
        const StreamMetrics &m = r.stream;

        // Extended conservation: every emitted request completes, is
        // shed (admission SLO or brown-out), or is counted lost by the
        // retry policy — retries and hedge duplicates never
        // double-count.
        EXPECT_EQ(m.completed + m.shed + m.lost,
                  static_cast<std::int64_t>(cfg.node.streamRequests));
        if (!chaos) {
            EXPECT_EQ(m.lost, 0);
            EXPECT_EQ(m.retried, 0);
            EXPECT_EQ(m.hedged, 0);
        }
        EXPECT_GE(m.hedged, m.hedgeWon);
        EXPECT_EQ(r.faultsInjected, chaos ? 1 : 0);

        // Every completion crossed the fabric at least once (hub-side
        // brown-out sheds and flaky dispatch failures never ride), and
        // nothing rides the wire without the fabric.
        if (cfg.fabric.enabled)
            EXPECT_GE(r.networkMessages, m.completed);
        else
            EXPECT_EQ(r.networkMessages, 0);

        // Per-node counters sum to the cluster-wide totals.
        std::int64_t completed = 0, misses = 0, shed = 0;
        std::int64_t dispatched = 0, redispatched = 0;
        for (const ClusterNodeMetrics &nm : r.nodes) {
            completed += nm.completed;
            misses += nm.misses;
            shed += nm.shed;
            dispatched += nm.dispatched;
            redispatched += nm.redispatched;
        }
        // Brown-out sheds happen hub-side before a node is chosen, so
        // they appear in the cluster total but in no per-node counter;
        // flaky dispatch failures likewise never reach an engine.
        std::int64_t hubShed = static_cast<std::int64_t>(
            sim.stats().get("brownout_shed"));
        std::int64_t flakyFails = static_cast<std::int64_t>(
            sim.stats().get("flaky_failures"));
        // Hedge wins are completions credited at the hub — the engines
        // never count a duplicate — and each win credits exactly once.
        EXPECT_EQ(completed + m.hedgeWon, m.completed);
        EXPECT_EQ(shed + hubShed, m.shed);
        EXPECT_DOUBLE_EQ(static_cast<double>(misses),
                         sim.stats().get("misses"));
        EXPECT_EQ(redispatched, r.redispatched);
        // Every emission is dispatched once, plus once more per
        // redispatch hop off a drained node, per scheduled retry, and
        // per hedge duplicate — minus the requests the hub never
        // handed to an engine at all (brown-out sheds and flaky
        // dispatch failures, which include retries that failed again).
        EXPECT_EQ(dispatched + hubShed + flakyFails,
                  static_cast<std::int64_t>(cfg.node.streamRequests) +
                      r.redispatched + m.retried + m.hedged);

        // The cluster-wide latency distribution is the exact merge of
        // per-request samples: one sample per completion, all
        // non-negative.
        EXPECT_EQ(sim.latencySamples().count(),
                  static_cast<std::uint64_t>(m.completed));
        for (double sample : sim.latencySamples().samples())
            ASSERT_GE(sample, 0.0);

        // Provisioning accounting: node-hours are the node-seconds
        // integral, and an active controller ticked at least once.
        EXPECT_GT(r.nodeSecondsLive, 0.0);
        EXPECT_NEAR(r.nodeHours, r.nodeSecondsLive / 3600.0,
                    1e-12 * (1.0 + r.nodeHours));
        if (cfg.controller.policy != ControllerPolicy::Static)
            EXPECT_GT(r.controllerTicks, 0);
        else
            EXPECT_EQ(r.controllerTicks, 0);
    }
}

TEST(DistributionInvariants, MergedCountEqualsSumOfPartsRandomized)
{
    sim::Rng rng(0xD157);
    for (int trial = 0; trial < kMergeTrials; ++trial) {
        std::size_t cap = 64u << rng.uniformInt(4); // 64..512
        int parts = 2 + static_cast<int>(rng.uniformInt(5));
        sim::Distribution merged("merged", cap);
        std::uint64_t total = 0;
        double sum = 0.0;
        for (int p = 0; p < parts; ++p) {
            sim::Distribution d("part", cap);
            int n = 1 + static_cast<int>(rng.uniformInt(3 * cap));
            for (int i = 0; i < n; ++i) {
                double v = rng.exponential(0.3);
                d.record(v);
                sum += v;
            }
            total += static_cast<std::uint64_t>(n);
            merged.merge(d);
        }
        EXPECT_EQ(merged.count(), total) << "trial " << trial;
        // Per-part sums associate differently than the sequential sum.
        EXPECT_NEAR(merged.sum(), sum, 1e-9 * sum);
        EXPECT_LE(merged.samples().size(), cap);
        EXPECT_GE(merged.quantile(1.0), merged.quantile(0.5));
    }
}

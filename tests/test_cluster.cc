/**
 * @file
 * Tests for the multi-node CoE serving cluster: the 1-node
 * full-replication anchor against the single-node EventDriven
 * goldens, fixed-seed determinism (repeats, byte-equal controller
 * logs, and sweep -j N), placement/dispatch policies, consistent-hash
 * homing, drain/rejoin with zero lost requests, heterogeneous nodes,
 * the diurnal arrival ramp, and the replicate-hot placement win on
 * Zipf traffic.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "coe/sweep.h"
#include "sim/log.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

ClusterConfig
clusterConfig(int nodes)
{
    ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.node.numExperts = 150;
    cfg.node.batch = 8;
    cfg.node.streamRequests = 400;
    cfg.node.routing = RoutingDistribution::Zipf;
    cfg.node.zipfS = 1.0;
    cfg.node.arrivalRatePerSec = 16.0 * nodes;
    cfg.node.seed = 11;
    return cfg;
}

/** RAII temp path that is removed on scope exit. */
struct TempFile
{
    explicit TempFile(const char *name)
        : path(std::string(::testing::TempDir()) + name)
    {
    }
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
expectStreamEq(const StreamMetrics &a, const StreamMetrics &b)
{
    EXPECT_DOUBLE_EQ(a.p50LatencySeconds, b.p50LatencySeconds);
    EXPECT_DOUBLE_EQ(a.p95LatencySeconds, b.p95LatencySeconds);
    EXPECT_DOUBLE_EQ(a.p99LatencySeconds, b.p99LatencySeconds);
    EXPECT_DOUBLE_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
    EXPECT_DOUBLE_EQ(a.maxLatencySeconds, b.maxLatencySeconds);
    EXPECT_DOUBLE_EQ(a.throughputRequestsPerSec,
                     b.throughputRequestsPerSec);
    EXPECT_DOUBLE_EQ(a.throughputTokensPerSec, b.throughputTokensPerSec);
    EXPECT_DOUBLE_EQ(a.meanQueueDepth, b.meanQueueDepth);
    EXPECT_DOUBLE_EQ(a.maxQueueDepth, b.maxQueueDepth);
    EXPECT_DOUBLE_EQ(a.meanBatchOccupancy, b.meanBatchOccupancy);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_DOUBLE_EQ(a.meanSwitchStallSeconds, b.meanSwitchStallSeconds);
    EXPECT_DOUBLE_EQ(a.p95SwitchStallSeconds, b.p95SwitchStallSeconds);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
    EXPECT_EQ(a.prefetchHits, b.prefetchHits);
    EXPECT_EQ(a.prefetchesCancelled, b.prefetchesCancelled);
}

} // namespace

// ------------------------------------------------------- name tables

TEST(ClusterPolicies, NamesRoundTrip)
{
    EXPECT_EQ(dispatchPolicyFromName("round-robin"),
              DispatchPolicy::RoundRobin);
    EXPECT_EQ(dispatchPolicyFromName("least-outstanding"),
              DispatchPolicy::LeastOutstanding);
    EXPECT_EQ(dispatchPolicyFromName("expert-affinity"),
              DispatchPolicy::ExpertAffinity);
    EXPECT_THROW(dispatchPolicyFromName("random"), sim::FatalError);
    EXPECT_STREQ(dispatchPolicyName(DispatchPolicy::LeastOutstanding),
                 "least-outstanding");

    EXPECT_EQ(placementPolicyFromName("replication"),
              PlacementPolicy::FullReplication);
    EXPECT_EQ(placementPolicyFromName("replicate-hot"),
              PlacementPolicy::ReplicateHotPartitionCold);
    EXPECT_EQ(placementPolicyFromName("partition"),
              PlacementPolicy::BalancedPartition);
    EXPECT_THROW(placementPolicyFromName("scatter"), sim::FatalError);
    EXPECT_STREQ(
        placementPolicyName(PlacementPolicy::ReplicateHotPartitionCold),
        "replicate-hot");
}

// --------------------------------------------------------- placement

TEST(ExpertPlacementMap, ShapesPerPolicy)
{
    ExpertPlacement rep =
        makePlacement(PlacementPolicy::FullReplication, 10, 4, 0);
    EXPECT_EQ(rep.replicas, 40);
    for (int e = 0; e < 10; ++e)
        EXPECT_EQ(rep.hostsOfExpert[e].size(), 4u);

    ExpertPlacement part =
        makePlacement(PlacementPolicy::BalancedPartition, 10, 4, 0);
    EXPECT_EQ(part.replicas, 10);
    for (int e = 0; e < 10; ++e) {
        ASSERT_EQ(part.hostsOfExpert[e].size(), 1u);
        EXPECT_EQ(part.hostsOfExpert[e][0], e % 4);
    }

    ExpertPlacement hot = makePlacement(
        PlacementPolicy::ReplicateHotPartitionCold, 10, 4, 2);
    // 2 hot experts on all 4 nodes + 8 cold singletons.
    EXPECT_EQ(hot.replicas, 2 * 4 + 8);
    EXPECT_EQ(hot.hostsOfExpert[0].size(), 4u);
    EXPECT_EQ(hot.hostsOfExpert[1].size(), 4u);
    EXPECT_EQ(hot.hostsOfExpert[2].size(), 1u);

    // hotExperts == 0 derives experts/10 (at least 1).
    ExpertPlacement derived = makePlacement(
        PlacementPolicy::ReplicateHotPartitionCold, 10, 2, 0);
    EXPECT_EQ(derived.hostsOfExpert[0].size(), 2u);
    EXPECT_EQ(derived.hostsOfExpert[1].size(), 1u);
}

// -------------------------------------------- single-node anchoring

namespace {

/** One row of the 1-node anchor table: a shaped serving config. */
struct OneNodeCase
{
    const char *name;
    std::function<void(ServingConfig &)> shape;
};

ServingConfig
oneNodeCaseConfig(const OneNodeCase &c)
{
    ServingConfig cfg;
    cfg.batch = 8;
    cfg.streamRequests = 384;
    cfg.arrivalRatePerSec = 16.0;
    cfg.routing = RoutingDistribution::Zipf;
    cfg.zipfS = 1.2;
    cfg.seed = 7;
    c.shape(cfg);
    return cfg;
}

/**
 * Every serving feature the single-node path drives: both schedulers,
 * prefetch, the closed loop, SLO tiers, sessions, spec decode over an
 * adapter zoo, both DGX baselines (one with a region override), a
 * wider DMA pool, and a DGX that cannot hold the experts.
 */
const std::vector<OneNodeCase> &
oneNodeCases()
{
    static const std::vector<OneNodeCase> cases = {
        {"fifo", [](ServingConfig &) {}},
        {"affinity",
         [](ServingConfig &c) {
             c.scheduler = SchedulerPolicy::ExpertAffinity;
         }},
        {"prefetch",
         [](ServingConfig &c) {
             c.scheduler = SchedulerPolicy::ExpertAffinity;
             c.predictivePrefetch = true;
             c.prefetchDepth = 4;
         }},
        {"closed_loop",
         [](ServingConfig &c) {
             c.batch = 4;
             c.streamRequests = 256;
             c.arrival = ArrivalProcess::ClosedLoop;
             c.clients = 24;
             c.thinkSeconds = 0.25;
             c.routing = RoutingDistribution::Uniform;
             c.seed = 11;
             c.scheduler = SchedulerPolicy::ExpertAffinity;
         }},
        {"slo_three_tenants",
         [](ServingConfig &c) {
             c.streamRequests = 300;
             c.arrivalRatePerSec = 120.0;
             for (int p = 0; p < 3; ++p) {
                 TenantSpec t;
                 t.name = "tier" + std::to_string(p);
                 t.priority = p;
                 t.sloSeconds = 1.0;
                 c.workload.tenantSpecs.push_back(t);
             }
         }},
        {"sessions",
         [](ServingConfig &c) {
             c.workload.tenants = 2;
             c.workload.sessionFollowProb = 0.5;
             c.scheduler = SchedulerPolicy::ExpertAffinity;
         }},
        {"spec_zoo_500",
         [](ServingConfig &c) {
             c.numExperts = 500;
             c.specDecode.enabled = true;
             c.zoo.enabled = true;
             c.zoo.churnEverySeconds = 5.0;
         }},
        {"dgx_a100",
         [](ServingConfig &c) { c.platform = Platform::DgxA100; }},
        {"dgx_h100_region",
         [](ServingConfig &c) {
             c.platform = Platform::DgxH100;
             c.expertRegionBytes = 200'000'000'000;
         }},
        {"dma_engines_4",
         [](ServingConfig &c) {
             c.batch = 1;
             c.arrivalRatePerSec = 24.0;
             c.predictivePrefetch = true;
             c.dmaEngines = 4;
         }},
        {"dgx_oom",
         [](ServingConfig &c) {
             c.platform = Platform::DgxA100;
             c.numExperts = 300;
         }},
    };
    return cases;
}

const OneNodeCase &
oneNodeCase(const std::string &name)
{
    for (const OneNodeCase &c : oneNodeCases())
        if (name == c.name)
            return c;
    throw std::invalid_argument("no 1-node case " + name);
}

} // namespace

/**
 * The cluster must not be a second simulator: a 1-node cluster with
 * full replication is the same engine behind a trivial dispatch
 * layer, and every stream metric must match the single-node
 * ServingSimulator bit for bit under every dispatch policy.
 */
TEST(ClusterSimulator, OneNodeFullReplicationMatchesSingleNode)
{
    for (const OneNodeCase &c : oneNodeCases()) {
        SCOPED_TRACE(c.name);
        ServingConfig base = oneNodeCaseConfig(c);
        ServingResult single = ServingSimulator(base).run();
        EXPECT_EQ(single.oom, std::string(c.name) == "dgx_oom");

        ClusterConfig ccfg;
        ccfg.node = base;
        ccfg.nodes = 1;
        ccfg.placement = PlacementPolicy::FullReplication;
        for (DispatchPolicy dispatch :
             {DispatchPolicy::RoundRobin, DispatchPolicy::LeastOutstanding,
              DispatchPolicy::ExpertAffinity}) {
            ccfg.dispatch = dispatch;
            ClusterResult cluster = ClusterSimulator(ccfg).run();
            EXPECT_EQ(cluster.oom, single.oom);
            expectStreamEq(cluster.stream, single.stream);
            EXPECT_EQ(cluster.stream.eventsExecuted,
                      single.stream.eventsExecuted);
            EXPECT_EQ(cluster.stream.shed, single.stream.shed);
            EXPECT_EQ(cluster.stream.specSteps, single.stream.specSteps);
            EXPECT_DOUBLE_EQ(cluster.missRate, single.missRate);
            EXPECT_DOUBLE_EQ(cluster.perBatch.routerSeconds,
                             single.perBatch.routerSeconds);
            EXPECT_DOUBLE_EQ(cluster.perBatch.switchSeconds,
                             single.perBatch.switchSeconds);
            EXPECT_DOUBLE_EQ(cluster.perBatch.execSeconds,
                             single.perBatch.execSeconds);
            EXPECT_DOUBLE_EQ(cluster.loadImbalance, 1.0);
        }
    }
}

/** The single-node result of one table row, as literals. */
struct ServePin
{
    const char *name;
    double p50, p99;
    double router, switchSeconds, exec; ///< ServingResult::perBatch
    double missRate;
    int residentCapacityExperts;
    // ServingSimulator::stats() keys
    double misses, dmaLoads, dmaLoadBytes;
    double shedTenant0, shedTenant1, prefetchesIssued;
};

/**
 * The values the table above is anchored to, computed by the
 * standalone single-node driver before event-driven serve became a
 * 1-node cluster: the Fig 1 split, miss rate, resident capacity, and
 * the stats() keys that tests, benches and perfbench read.
 */
TEST(ClusterSimulator, OneNodeServeValuesArePinned)
{
    const ServePin pins[] = {
        {"prefetch", 0.35731539149050001, 0.75591874410116133,
         0.071381331987000085, 0.0, 0.12780347394357885,
         0.19270833333333334, 38, 74, 104, 1401590448128, 0, 0, 34},
        {"slo_three_tenants", 2.3067357520164999, 2.9952354218371,
         0.071381331987000002, 0.0030037283502666692,
         0.26812103804413323, 0.50943396226415094, 38, 54, 54,
         727748886528, 80, 85, 0},
        {"spec_zoo_500", 0.17831427341799999, 0.29911135337457001,
         0.071381331987000154, 0.0, 0.038880389555663288,
         0.40364583333333331, 15083, 155, 155, 5200936960, 0, 0, 0},
        {"closed_loop", 1.0710945877325, 1.4539057563269999,
         0.034397931938999989, 0.0040944381822615381,
         0.1494317541494154, 0.65625, 38, 168, 168, 2264107646976,
         0, 0, 0},
    };
    for (const ServePin &pin : pins) {
        SCOPED_TRACE(pin.name);
        ServingSimulator sim(oneNodeCaseConfig(oneNodeCase(pin.name)));
        ServingResult r = sim.run();
        EXPECT_DOUBLE_EQ(r.stream.p50LatencySeconds, pin.p50);
        EXPECT_DOUBLE_EQ(r.stream.p99LatencySeconds, pin.p99);
        EXPECT_DOUBLE_EQ(r.perBatch.routerSeconds, pin.router);
        EXPECT_DOUBLE_EQ(r.perBatch.switchSeconds, pin.switchSeconds);
        EXPECT_DOUBLE_EQ(r.perBatch.execSeconds, pin.exec);
        EXPECT_DOUBLE_EQ(r.missRate, pin.missRate);
        EXPECT_EQ(r.residentCapacityExperts, pin.residentCapacityExperts);
        const sim::StatSet &s = sim.stats();
        EXPECT_EQ(s.get("misses"), pin.misses);
        EXPECT_EQ(s.get("dma_loads_issued"), pin.dmaLoads);
        EXPECT_EQ(s.get("dma_load_bytes"), pin.dmaLoadBytes);
        EXPECT_EQ(s.get("shed_tenant_0"), pin.shedTenant0);
        EXPECT_EQ(s.get("shed_tenant_1"), pin.shedTenant1);
        EXPECT_EQ(s.get("prefetches_issued"), pin.prefetchesIssued);
    }
}

// ------------------------------------------------------ determinism

TEST(ClusterSimulator, FixedSeedRunsAreBitIdenticalAcrossRepeats)
{
    for (PlacementPolicy placement :
         {PlacementPolicy::FullReplication,
          PlacementPolicy::ReplicateHotPartitionCold,
          PlacementPolicy::BalancedPartition}) {
        for (DispatchPolicy dispatch :
             {DispatchPolicy::RoundRobin,
              DispatchPolicy::LeastOutstanding,
              DispatchPolicy::ExpertAffinity}) {
            ClusterConfig cfg = clusterConfig(4);
            cfg.placement = placement;
            cfg.dispatch = dispatch;
            ClusterResult a = ClusterSimulator(cfg).run();
            ClusterResult b = ClusterSimulator(cfg).run();
            expectStreamEq(a.stream, b.stream);
            EXPECT_EQ(a.stream.eventsExecuted, b.stream.eventsExecuted);
            EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
            EXPECT_DOUBLE_EQ(a.loadImbalance, b.loadImbalance);
            ASSERT_EQ(a.nodes.size(), b.nodes.size());
            for (std::size_t n = 0; n < a.nodes.size(); ++n) {
                EXPECT_EQ(a.nodes[n].completed, b.nodes[n].completed);
                EXPECT_EQ(a.nodes[n].dispatched, b.nodes[n].dispatched);
                EXPECT_EQ(a.nodes[n].misses, b.nodes[n].misses);
            }
        }
    }
}

TEST(ClusterSimulator, ControllerLogIsByteEqualAcrossRepeats)
{
    // The decision log is the strictest witness of determinism: every
    // snapshot field and every action, byte for byte. Covers both
    // scaling policies, the reactive one under a diurnal ramp.
    for (ControllerPolicy policy : {ControllerPolicy::ReactiveThreshold,
                                    ControllerPolicy::TargetUtilization}) {
        SCOPED_TRACE(controllerPolicyName(policy));
        TempFile logA("cluster_ctl_a.jsonl");
        TempFile logB("cluster_ctl_b.jsonl");
        ClusterConfig cfg = clusterConfig(4);
        cfg.dispatch = DispatchPolicy::ExpertAffinity;
        cfg.placement = PlacementPolicy::ReplicateHotPartitionCold;
        cfg.hotExperts = 15;
        cfg.node.streamRequests = 4000;
        cfg.node.arrivalRatePerSec = 64.0;
        cfg.node.scheduler = SchedulerPolicy::ExpertAffinity;
        cfg.node.seed = 7;
        cfg.controller.policy = policy;
        cfg.controller.tickSeconds = 0.5;
        cfg.controller.minNodes = 1;
        if (policy == ControllerPolicy::ReactiveThreshold) {
            cfg.diurnalAmplitude = 0.6;
            cfg.diurnalPeriodSeconds = 30.0;
            cfg.controller.scaleUpQueueDepth = 12.0;
            cfg.controller.scaleDownQueueDepth = 2.0;
            cfg.controller.cooldownTicks = 4;
        } else {
            cfg.controller.targetUtilization = 0.7;
        }

        cfg.controller.logPath = logA.path;
        ClusterResult a = ClusterSimulator(cfg).run();
        cfg.controller.logPath = logB.path;
        ClusterResult b = ClusterSimulator(cfg).run();

        EXPECT_GT(a.controllerTicks, 0);
        EXPECT_GT(a.controllerActions, 0); // the loop actually scaled
        expectStreamEq(a.stream, b.stream);
        EXPECT_EQ(a.stream.eventsExecuted, b.stream.eventsExecuted);
        EXPECT_DOUBLE_EQ(a.nodeSecondsLive, b.nodeSecondsLive);
        std::string textA = readFile(logA.path);
        EXPECT_FALSE(textA.empty());
        EXPECT_EQ(textA, readFile(logB.path));
    }
}

// -------------------------------------------------- dispatch policy

TEST(ClusterSimulator, ConsistentHashKeepsExpertOnHomeNodeUntilDrain)
{
    // Without a drain, every request for an expert lands on the same
    // node: dispatched counts per node must equal the sum over that
    // node's home experts.
    ClusterConfig cfg = clusterConfig(4);
    cfg.dispatch = DispatchPolicy::ExpertAffinity;
    cfg.placement = PlacementPolicy::FullReplication;

    ClusterSimulator sim(cfg);
    ClusterResult r = sim.run();

    // Re-derive each expert's home node by running the same consistent
    // hash through a fresh cluster with one request per expert
    // (round-robin routing covers every expert deterministically).
    ClusterConfig probe = cfg;
    probe.node.routing = RoutingDistribution::RoundRobin;
    probe.node.streamRequests = probe.node.numExperts;
    ClusterResult pr = ClusterSimulator(probe).run();

    // The affinity map is total: all four nodes exist, and the two
    // runs must agree that the mapping is stable — the probe's
    // per-node dispatched counts are reproducible.
    ClusterResult pr2 = ClusterSimulator(probe).run();
    std::int64_t placedTotal = 0;
    for (std::size_t n = 0; n < pr.nodes.size(); ++n) {
        EXPECT_EQ(pr.nodes[n].dispatched, pr2.nodes[n].dispatched);
        placedTotal += pr.nodes[n].dispatched;
    }
    EXPECT_EQ(placedTotal, probe.node.streamRequests);

    // In the Zipf run, a node that got zero home experts in the probe
    // must see zero dispatches (expert -> node is the same hash).
    for (std::size_t n = 0; n < r.nodes.size(); ++n) {
        if (pr.nodes[n].dispatched == 0) {
            EXPECT_EQ(r.nodes[n].dispatched, 0);
        }
    }
    EXPECT_EQ(r.stream.completed, cfg.node.streamRequests);
}

TEST(ClusterSimulator, ConsistentHashHomesSingleExpertUntilDrain)
{
    // With a single expert, the consistent hash maps every request to
    // one home node. After that node drains, every remaining request
    // moves to exactly ONE other node (the next eligible node
    // clockwise on the ring) — the rest of the cluster is untouched.
    ClusterConfig cfg = clusterConfig(4);
    cfg.dispatch = DispatchPolicy::ExpertAffinity;
    cfg.node.numExperts = 1;
    cfg.node.routing = RoutingDistribution::Uniform;
    cfg.node.streamRequests = 200;
    cfg.node.arrivalRatePerSec = 24.0;

    ClusterResult r = ClusterSimulator(cfg).run();
    int home = -1;
    for (const ClusterNodeMetrics &nm : r.nodes) {
        if (nm.dispatched == 0)
            continue;
        EXPECT_EQ(home, -1) << "expert 0 has two home nodes";
        home = nm.node;
        EXPECT_EQ(nm.dispatched, cfg.node.streamRequests);
    }
    ASSERT_GE(home, 0);

    ClusterConfig drained = cfg;
    drained.actions = {{3.0, ActionKind::Drain, home}};
    ClusterResult dr = ClusterSimulator(drained).run();
    EXPECT_EQ(dr.stream.completed, cfg.node.streamRequests);
    int successors = 0;
    std::int64_t total = 0;
    for (const ClusterNodeMetrics &nm : dr.nodes) {
        total += nm.completed;
        if (nm.node != home && nm.completed > 0)
            ++successors;
    }
    EXPECT_EQ(total, cfg.node.streamRequests);
    // Pre-drain traffic stayed home; post-drain traffic moved to one
    // successor, not scattered.
    EXPECT_GT(dr.nodes[static_cast<std::size_t>(home)].completed, 0);
    EXPECT_LT(dr.nodes[static_cast<std::size_t>(home)].completed,
              cfg.node.streamRequests);
    EXPECT_EQ(successors, 1);
}

TEST(ClusterSimulator, LeastOutstandingBalancesUniformLoad)
{
    ClusterConfig cfg = clusterConfig(4);
    cfg.node.routing = RoutingDistribution::Uniform;
    cfg.dispatch = DispatchPolicy::LeastOutstanding;
    cfg.node.streamRequests = 800;
    ClusterResult r = ClusterSimulator(cfg).run();
    // Uniform traffic through least-outstanding dispatch stays close
    // to even: no node serves more than 1.5x its fair share.
    EXPECT_LT(r.loadImbalance, 1.5);
    EXPECT_EQ(r.stream.completed, cfg.node.streamRequests);
}

// ------------------------------------------------------ drain/rejoin

TEST(ClusterSimulator, DrainMidRunLosesNothingAndRedispatches)
{
    ClusterConfig cfg = clusterConfig(4);
    cfg.dispatch = DispatchPolicy::ExpertAffinity;
    cfg.node.streamRequests = 600;
    cfg.node.arrivalRatePerSec = 96.0; // saturating: queues build
    cfg.actions = {{2.0, ActionKind::Drain, 1}};

    ClusterResult r = ClusterSimulator(cfg).run();
    EXPECT_EQ(r.stream.completed, cfg.node.streamRequests);
    EXPECT_TRUE(r.nodes[1].drained);
    // The drained node's queue moved somewhere else...
    EXPECT_GT(r.redispatched, 0);
    EXPECT_EQ(r.nodes[1].redispatched, r.redispatched);
    // ...and the node stopped receiving work afterwards, so the other
    // nodes absorbed the rest of the stream.
    std::int64_t others = r.nodes[0].completed + r.nodes[2].completed +
        r.nodes[3].completed;
    EXPECT_EQ(others + r.nodes[1].completed, cfg.node.streamRequests);
    EXPECT_GT(others, r.nodes[1].completed);
}

TEST(ClusterSimulator, RejoinColdServesAgainAfterDrain)
{
    ClusterConfig cfg = clusterConfig(2);
    cfg.dispatch = DispatchPolicy::RoundRobin;
    cfg.node.streamRequests = 800;
    cfg.node.arrivalRatePerSec = 48.0;
    cfg.actions = {{2.0, ActionKind::Drain, 0},
                   {6.0, ActionKind::Rejoin, 0}};

    ClusterSimulator sim(cfg);
    ClusterResult drained = sim.run();
    EXPECT_EQ(drained.stream.completed, cfg.node.streamRequests);
    EXPECT_EQ(sim.stats().get("rejoin_events"), 1.0);

    // The rejoined node serves a meaningful share of the tail.
    EXPECT_GT(drained.nodes[0].completed, 0);
    EXPECT_GT(drained.nodes[1].completed, drained.nodes[0].completed);
}

TEST(ClusterSimulator, DrainRejoinSurgeScheduleIsDeterministic)
{
    ClusterConfig cfg = clusterConfig(4);
    cfg.dispatch = DispatchPolicy::RoundRobin;
    cfg.placement = PlacementPolicy::ReplicateHotPartitionCold;
    cfg.hotExperts = 15;
    cfg.node.streamRequests = 4000;
    // Overload a bit so the drained node has queued work to move.
    cfg.node.arrivalRatePerSec = 96.0;
    cfg.node.scheduler = SchedulerPolicy::ExpertAffinity;
    cfg.node.seed = 7;
    cfg.actions = {{8.0, ActionKind::Drain, 1},
                   {20.0, ActionKind::Rejoin, 1},
                   {25.0, ActionKind::RateOverride, 0, 1.5}};

    ClusterSimulator sim(cfg);
    ClusterResult a = sim.run();
    EXPECT_EQ(a.stream.completed, cfg.node.streamRequests);
    EXPECT_GT(a.redispatched, 0); // the drain actually moved work
    EXPECT_TRUE(a.nodes[1].drained);
    EXPECT_EQ(sim.stats().get("rejoin_events"), 1.0);
    EXPECT_EQ(sim.stats().get("rate_overrides"), 1.0);

    ClusterResult b = ClusterSimulator(cfg).run();
    expectStreamEq(a.stream, b.stream);
    EXPECT_EQ(a.stream.eventsExecuted, b.stream.eventsExecuted);
    EXPECT_EQ(a.redispatched, b.redispatched);
    EXPECT_DOUBLE_EQ(a.nodeSecondsLive, b.nodeSecondsLive);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (std::size_t n = 0; n < a.nodes.size(); ++n) {
        EXPECT_EQ(a.nodes[n].dispatched, b.nodes[n].dispatched);
        EXPECT_EQ(a.nodes[n].redispatched, b.nodes[n].redispatched);
        EXPECT_EQ(a.nodes[n].completed, b.nodes[n].completed);
    }
}

TEST(ClusterSimulator, RejectsBadClusterConfigs)
{
    ClusterConfig cfg = clusterConfig(1);
    cfg.actions = {{1.0, ActionKind::Drain, 0}}; // nowhere to go
    EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);

    cfg = clusterConfig(2);
    cfg.actions = {{1.0, ActionKind::Drain, 2}}; // no such node
    EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);

    // Action times must map to a tick and rate factors must be finite
    // and positive, or a NaN would reach the event queue.
    const double inf = std::numeric_limits<double>::infinity();
    for (double at : {-1.0, std::nan(""), inf, 1e300}) {
        cfg = clusterConfig(2);
        cfg.actions = {{at, ActionKind::Drain, 1}};
        EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);
    }
    for (double factor : {0.0, -2.0, std::nan(""), inf}) {
        cfg = clusterConfig(2);
        cfg.actions = {{1.0, ActionKind::RateOverride, 0, factor}};
        EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);
    }

    cfg = clusterConfig(2);
    cfg.diurnalAmplitude = 1.5; // rate would go negative
    EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);

    // NaN used to pass both range checks and silently mean "off".
    for (double v : {std::nan(""), inf, -1.0}) {
        cfg = clusterConfig(2);
        cfg.diurnalAmplitude = v;
        EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);
        cfg = clusterConfig(2);
        cfg.faultPolicy.brownoutDepth = v;
        EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);
        cfg = clusterConfig(2);
        cfg.diurnalAmplitude = 0.5;
        cfg.diurnalPeriodSeconds = v;
        EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);
    }

    cfg = clusterConfig(2);
    cfg.node.arrival = ArrivalProcess::ClosedLoop;
    cfg.node.clients = 8;
    cfg.diurnalAmplitude = 0.5; // diurnal is open-loop only
    EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);

    cfg = clusterConfig(2);
    cfg.overrides.push_back({5, 2, 0}); // override for missing node
    EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);

    // The free validator makes the same checks without constructing.
    EXPECT_THROW(validateClusterConfig(cfg), sim::FatalError);
    cfg = clusterConfig(2);
    validateClusterConfig(cfg);
    cfg = clusterConfig(0);
    EXPECT_THROW(validateClusterConfig(cfg), sim::FatalError);

    cfg = clusterConfig(2);
    cfg.hotExperts = 1000; // more hot experts than experts
    EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);
}

// --------------------------------------------- scenario diversity

TEST(ClusterSimulator, DiurnalRampCompletesAndShiftsTail)
{
    ClusterConfig flat = clusterConfig(2);
    flat.node.streamRequests = 600;
    flat.node.arrivalRatePerSec = 40.0;

    ClusterConfig ramp = flat;
    ramp.diurnalAmplitude = 0.9;
    ramp.diurnalPeriodSeconds = 10.0;

    ClusterResult flat_r = ClusterSimulator(flat).run();
    ClusterResult ramp_r = ClusterSimulator(ramp).run();
    EXPECT_EQ(flat_r.stream.completed, flat.node.streamRequests);
    EXPECT_EQ(ramp_r.stream.completed, ramp.node.streamRequests);
    // The ramp's peak pushes the system past the flat rate, so the
    // tail (p99) degrades relative to the flat arrival process.
    EXPECT_GT(ramp_r.stream.p99LatencySeconds,
              flat_r.stream.p99LatencySeconds);
}

TEST(ClusterSimulator, HeterogeneousNodesRespectOverrides)
{
    ClusterConfig cfg = clusterConfig(2);
    cfg.node.streamRequests = 300;
    // Node 1 gets a smaller expert region: it must show a higher miss
    // rate than its twin under the same dispatch split.
    ClusterNodeOverride o;
    o.node = 1;
    o.expertRegionBytes = static_cast<std::int64_t>(200e9);
    cfg.overrides.push_back(o);
    cfg.dispatch = DispatchPolicy::RoundRobin;
    cfg.node.routing = RoutingDistribution::Uniform;

    ClusterResult r = ClusterSimulator(cfg).run();
    EXPECT_EQ(r.stream.completed, cfg.node.streamRequests);
    EXPECT_GT(r.nodes[1].missRate, r.nodes[0].missRate);
    EXPECT_LE(r.nodes[1].peakResidentBytes,
              static_cast<std::int64_t>(200e9));

    // A base region (--expert-region-gb) does not override the
    // per-node one (--node-region-gb).
    cfg.node.expertRegionBytes = static_cast<std::int64_t>(400e9);
    r = ClusterSimulator(cfg).run();
    EXPECT_EQ(r.stream.completed, cfg.node.streamRequests);
    EXPECT_GT(r.nodes[1].missRate, r.nodes[0].missRate);
    EXPECT_LE(r.nodes[1].peakResidentBytes,
              static_cast<std::int64_t>(200e9));
    EXPECT_GT(r.nodes[0].peakResidentBytes,
              static_cast<std::int64_t>(200e9));
}

// ------------------------------------- placement trade-off anchor

/**
 * The CoServe-style placement result the ablation bench prints, as a
 * regression test: on a Zipf(1.0) 150-expert workload at 4 nodes,
 * replicate-hot/partition-cold beats balanced partition on p95 (hot
 * traffic spreads over all nodes) AND beats full replication on the
 * HBM the placement demands (the cold tail is not copied N times).
 */
TEST(ClusterSimulator, ReplicateHotBeatsPartitionP95AndReplicationFootprint)
{
    auto run = [](PlacementPolicy placement) {
        ClusterConfig cfg;
        cfg.nodes = 4;
        cfg.placement = placement;
        cfg.dispatch = DispatchPolicy::LeastOutstanding;
        cfg.hotExperts = 15;
        cfg.node.numExperts = 150;
        cfg.node.batch = 8;
        cfg.node.streamRequests = 1200;
        cfg.node.routing = RoutingDistribution::Zipf;
        cfg.node.zipfS = 1.0;
        cfg.node.arrivalRatePerSec = 64.0;
        cfg.node.seed = 3;
        return ClusterSimulator(cfg).run();
    };

    ClusterResult replication = run(PlacementPolicy::FullReplication);
    ClusterResult hot = run(PlacementPolicy::ReplicateHotPartitionCold);
    ClusterResult partition = run(PlacementPolicy::BalancedPartition);

    // p95: partition funnels the Zipf head through single nodes.
    EXPECT_LT(hot.stream.p95LatencySeconds,
              partition.stream.p95LatencySeconds);
    // Footprint: replication copies all 150 experts to all 4 nodes.
    EXPECT_LT(hot.placedBytesTotal, replication.placedBytesTotal);
    EXPECT_LT(hot.expertReplicas, replication.expertReplicas);
    EXPECT_GT(hot.expertReplicas, partition.expertReplicas);
}

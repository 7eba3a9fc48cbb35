/**
 * @file
 * Tests for the event-driven link/credit interconnect (sim/network.h)
 * and its cluster integration (coe/fabric.h): topology name tables and
 * config validation, route shapes per topology, credit-exhaustion
 * backpressure (stalls counted, nothing dropped, completion strictly
 * later than with deep buffers), same-tick round-robin arbitration
 * fairness at a shared switch, the zero-network identity contract
 * (fabric knobs are inert until enabled), networked serial-vs-parallel
 * determinism, link-degrade request conservation, the RDN replay
 * entry point arch::simulatedCongestionFactor, and the train fast path
 * (NetworkTrain.*: differential against the per-flit reference, the
 * closed-form credit-window check against its per-flit scan, the
 * event count it buys, and the Tick-range guards).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "arch/rdn.h"
#include "coe/cluster.h"
#include "coe/faults.h"
#include "coe/serving.h"
#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/network.h"
#include "sim/rng.h"
#include "sim/ticks.h"

namespace sn40l::sim {

/** Test-only access: a Network that never forms trains is the per-flit
 *  reference the train path is checked against, and the per-flit
 *  credit scan is the reference for the closed-form admission check. */
class NetworkTestPeer
{
  public:
    using Train = Network::Train;
    using Link = Network::Link;

    static void perFlitOnly(Network &net)
    {
        net.trainsEnabled_ = false;
        net.trainMode_ = false;
    }
    static void setBufferFlits(Network &net, int buffer)
    {
        net.cfg_.bufferFlits = buffer;
    }
    static bool creditsHold(Network &net, const Link &l, const Train &t)
    {
        return net.creditsHold(l, t);
    }
    static bool creditsScan(const Network &net, const Link &l, const Train &t)
    {
        return net.creditsScan(l, t);
    }
    /** creditsHold calls that needed the scan. */
    static std::int64_t creditScans(const Network &net)
    {
        return net.creditScans_;
    }
};

} // namespace sn40l::sim

using namespace sn40l;
using namespace sn40l::coe;

namespace {

/** Cluster config used by the fabric integration tests (same shape as
 *  the test_cluster golden helper). */
ClusterConfig
clusterConfig(int nodes)
{
    ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.dispatch = DispatchPolicy::RoundRobin;
    cfg.placement = PlacementPolicy::FullReplication;
    cfg.node.mode = ServingMode::EventDriven;
    cfg.node.numExperts = 150;
    cfg.node.batch = 8;
    cfg.node.streamRequests = 400;
    cfg.node.routing = RoutingDistribution::Zipf;
    cfg.node.zipfS = 1.0;
    cfg.node.arrivalRatePerSec = 16.0 * nodes;
    cfg.node.seed = 11;
    return cfg;
}

/** Strict result equality: every integer counter and every derived
 *  double that the cluster goldens pin, plus the network counters. */
void
expectClusterIdentical(const ClusterResult &a, const ClusterResult &b)
{
    EXPECT_EQ(a.oom, b.oom);
    EXPECT_EQ(a.stream.completed, b.stream.completed);
    EXPECT_EQ(a.stream.batches, b.stream.batches);
    EXPECT_EQ(a.stream.shed, b.stream.shed);
    EXPECT_EQ(a.stream.lost, b.stream.lost);
    EXPECT_DOUBLE_EQ(a.stream.p50LatencySeconds,
                     b.stream.p50LatencySeconds);
    EXPECT_DOUBLE_EQ(a.stream.p95LatencySeconds,
                     b.stream.p95LatencySeconds);
    EXPECT_DOUBLE_EQ(a.stream.p99LatencySeconds,
                     b.stream.p99LatencySeconds);
    EXPECT_DOUBLE_EQ(a.stream.maxLatencySeconds,
                     b.stream.maxLatencySeconds);
    EXPECT_DOUBLE_EQ(a.stream.makespanSeconds, b.stream.makespanSeconds);
    EXPECT_DOUBLE_EQ(a.stream.throughputRequestsPerSec,
                     b.stream.throughputRequestsPerSec);
    EXPECT_DOUBLE_EQ(a.stream.meanQueueDepth, b.stream.meanQueueDepth);
    EXPECT_DOUBLE_EQ(a.stream.maxQueueDepth, b.stream.maxQueueDepth);
    EXPECT_DOUBLE_EQ(a.stream.meanBatchOccupancy,
                     b.stream.meanBatchOccupancy);
    EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
    EXPECT_EQ(a.redispatched, b.redispatched);
    EXPECT_EQ(a.networkMessages, b.networkMessages);
    EXPECT_EQ(a.networkFlits, b.networkFlits);
    EXPECT_EQ(a.networkCreditStalls, b.networkCreditStalls);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (std::size_t n = 0; n < a.nodes.size(); ++n) {
        EXPECT_EQ(a.nodes[n].dispatched, b.nodes[n].dispatched)
            << "node " << n;
        EXPECT_EQ(a.nodes[n].completed, b.nodes[n].completed)
            << "node " << n;
        EXPECT_EQ(a.nodes[n].batches, b.nodes[n].batches)
            << "node " << n;
    }
}

/** Serial vs parallel: same as above except the two cluster-wide
 *  running means (merge-order sensitive) are compared loosely. */
void
expectClusterEqualAcrossThreads(const ClusterResult &a,
                                const ClusterResult &b)
{
    expectClusterIdentical(a, b);
    EXPECT_NEAR(a.stream.meanLatencySeconds, b.stream.meanLatencySeconds,
                1e-9 * (1.0 + a.stream.meanLatencySeconds));
}

} // namespace

// ----------------------------------------------- names & validation

TEST(NetworkNames, TopologyRoundTripAndAliases)
{
    for (sim::Topology t :
         {sim::Topology::Star, sim::Topology::Mesh2D,
          sim::Topology::Torus2D, sim::Topology::FatTree})
        EXPECT_EQ(sim::topologyFromName(sim::topologyName(t)), t);
    EXPECT_EQ(sim::topologyFromName("mesh2d"), sim::Topology::Mesh2D);
    EXPECT_EQ(sim::topologyFromName("torus2d"), sim::Topology::Torus2D);
    EXPECT_EQ(sim::topologyFromName("fattree"), sim::Topology::FatTree);
    EXPECT_THROW(sim::topologyFromName("ring"), sim::FatalError);
}

TEST(NetworkNames, ConfigValidationRejectsNonsense)
{
    sim::NetworkConfig good;
    good.endpoints = 4;
    EXPECT_NO_THROW(sim::validateNetworkConfig(good));

    auto expect_fatal = [](auto mutate) {
        sim::NetworkConfig bad;
        bad.endpoints = 4;
        mutate(bad);
        EXPECT_THROW(sim::validateNetworkConfig(bad), sim::FatalError);
    };
    expect_fatal([](sim::NetworkConfig &c) { c.endpoints = 0; });
    expect_fatal([](sim::NetworkConfig &c) { c.linkBytesPerSec = 0.0; });
    expect_fatal([](sim::NetworkConfig &c) { c.linkLatency = -1; });
    expect_fatal([](sim::NetworkConfig &c) { c.bufferFlits = 0; });
    expect_fatal([](sim::NetworkConfig &c) { c.flitBytes = 0.0; });
    expect_fatal([](sim::NetworkConfig &c) { c.maxFlitsPerMessage = 0; });
    expect_fatal([](sim::NetworkConfig &c) { c.fatTreeSpines = 0; });
    // A full message would serialize past the Tick range.
    expect_fatal([](sim::NetworkConfig &c) { c.linkBytesPerSec = 1e-20; });
}

TEST(NetworkNames, FabricValidationOnlyBitesWhenEnabled)
{
    coe::FabricConfig off;
    off.linkGbps = -5.0; // inert: the fabric is disabled
    EXPECT_NO_THROW(coe::validateFabricConfig(off));

    coe::FabricConfig on;
    on.enabled = true;
    EXPECT_NO_THROW(coe::validateFabricConfig(on));

    // Each bad value fails naming its field (and flag, where one
    // exists) instead of reaching a float-to-Tick cast.
    auto expect_fatal = [](auto mutate, const std::string &field) {
        coe::FabricConfig bad;
        bad.enabled = true;
        mutate(bad);
        try {
            coe::validateFabricConfig(bad);
            ADD_FAILURE() << field << ": expected FatalError";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    };
    const double nan = std::nan(""), inf = HUGE_VAL;
    using F = coe::FabricConfig;
    expect_fatal([](F &c) { c.linkGbps = -5.0; }, "linkGbps (--link-gbps)");
    expect_fatal([&](F &c) { c.linkGbps = nan; }, "linkGbps (--link-gbps)");
    expect_fatal([&](F &c) { c.linkGbps = inf; }, "linkGbps (--link-gbps)");
    for (double us : {nan, inf, -1.0, 1e300})
        expect_fatal([us](F &c) { c.linkLatencyUs = us; },
                     "linkLatencyUs (--link-latency-us)");
    expect_fatal([](F &c) { c.linkBufferFlits = 0; },
                 "linkBufferFlits (--link-buffer-flits)");
    expect_fatal([&](F &c) { c.flitBytes = nan; }, "flitBytes");
    expect_fatal([](F &c) { c.flitBytes = 0.0; }, "flitBytes");
    expect_fatal([](F &c) { c.maxFlitsPerMessage = 0; },
                 "maxFlitsPerMessage");
    expect_fatal([&](F &c) { c.requestOverheadBytes = inf; },
                 "requestOverheadBytes");
    expect_fatal([&](F &c) { c.requestPayloadBytes = nan; },
                 "requestPayloadBytes");
    expect_fatal([](F &c) { c.requestPayloadBytes = -1.0; },
                 "requestPayloadBytes");
}

// ------------------------------------------------------------ routes

TEST(NetworkRoute, StarAlwaysTwoHopsThroughTheHub)
{
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.endpoints = 4;
    sim::Network net(eq, cfg);
    // 4 endpoints, one hub: a link each way per endpoint.
    EXPECT_EQ(net.linkCount(), 8);
    for (int s = 0; s < 4; ++s)
        for (int d = 0; d < 4; ++d) {
            if (s == d)
                continue;
            const std::vector<int> &path = net.route(s, d);
            ASSERT_EQ(path.size(), 2u) << s << "->" << d;
            EXPECT_EQ(net.linkTo(path[0]), 4);   // into the hub
            EXPECT_EQ(net.linkFrom(path[1]), 4); // out of the hub
        }
    EXPECT_EQ(net.nodeLabel(0), "ep0");
    EXPECT_EQ(net.nodeLabel(4), "sw0");
    EXPECT_THROW(net.route(0, 4), sim::FatalError); // hub is no endpoint
}

TEST(NetworkRoute, MeshUsesXYDimensionOrder)
{
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.topology = sim::Topology::Mesh2D;
    cfg.endpoints = 9;
    cfg.meshCols = 3;
    sim::Network net(eq, cfg);
    // Corner to corner on a 3x3: 2 X hops then 2 Y hops.
    const std::vector<int> &path = net.route(0, 8);
    ASSERT_EQ(path.size(), 4u);
    EXPECT_EQ(net.linkTo(path[0]), 1); // x first
    EXPECT_EQ(net.linkTo(path[1]), 2);
    EXPECT_EQ(net.linkTo(path[2]), 5); // then y
    EXPECT_EQ(net.linkTo(path[3]), 8);
}

TEST(NetworkRoute, TorusWrapShortensTheLongWay)
{
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.topology = sim::Topology::Torus2D;
    cfg.endpoints = 9;
    cfg.meshCols = 3;
    sim::Network net(eq, cfg);
    // 0 -> 2 is two hops on a mesh but one wrap hop on the torus.
    EXPECT_EQ(net.route(0, 2).size(), 1u);
    EXPECT_EQ(net.route(0, 6).size(), 1u); // same in Y
}

TEST(NetworkRoute, FatTreeStaysInTheLeafWhenItCan)
{
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.topology = sim::Topology::FatTree;
    cfg.endpoints = 8;
    cfg.fatTreeRadix = 4;
    cfg.fatTreeSpines = 2;
    sim::Network net(eq, cfg);
    EXPECT_EQ(net.route(0, 1).size(), 2u); // same leaf: up, down
    EXPECT_EQ(net.route(0, 4).size(), 4u); // cross leaf: via a spine
}

// ------------------------------------------------- delivery & credits

TEST(NetworkDelivery, LocalSendTouchesNoLink)
{
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.endpoints = 2;
    sim::Network net(eq, cfg);
    bool delivered = false;
    net.send(0, 0, 1e9, [&delivered]() { delivered = true; });
    EXPECT_EQ(net.messagesInFlight(), 1);
    eq.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(net.messagesDelivered(), 1);
    EXPECT_EQ(net.flitsDelivered(), 0); // no link was crossed
    EXPECT_EQ(net.creditStalls(), 0);
}

TEST(NetworkDelivery, MessageArrivesWholeAndInFlightDrains)
{
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.endpoints = 2;
    cfg.flitBytes = 64.0;
    sim::Network net(eq, cfg);
    sim::Tick done_at = 0;
    net.send(0, 1, 64.0 * 10, [&]() { done_at = eq.now(); });
    eq.run();
    EXPECT_EQ(net.messagesDelivered(), 1);
    EXPECT_EQ(net.messagesInFlight(), 0);
    EXPECT_EQ(net.flitsDelivered(), 10);
    // At least two hop latencies (ep -> hub -> ep) plus serialization.
    EXPECT_GE(done_at, 2 * cfg.linkLatency);
}

TEST(NetworkCredit, ExhaustionStallsButDeliversEverything)
{
    // 40 flits through 2-deep buffers: the transmitter must stall on
    // credits (counted), yet every flit lands. The same message
    // through 64-deep buffers never stalls and finishes strictly
    // earlier — the credit loop (return delay == link latency) is the
    // pacing mechanism, not a drop mechanism.
    const double bytes = 64.0 * 40;
    auto run_with_buffer = [&](int buffer_flits, std::int64_t &stalls,
                               std::int64_t &flits) {
        sim::EventQueue eq;
        sim::NetworkConfig cfg;
        cfg.endpoints = 2;
        cfg.flitBytes = 64.0;
        cfg.bufferFlits = buffer_flits;
        sim::Network net(eq, cfg);
        sim::Tick done_at = 0;
        net.send(0, 1, bytes, [&]() { done_at = eq.now(); });
        eq.run();
        stalls = net.creditStalls();
        flits = net.flitsDelivered();
        return done_at;
    };
    std::int64_t shallow_stalls = 0, shallow_flits = 0;
    std::int64_t deep_stalls = 0, deep_flits = 0;
    sim::Tick shallow_done =
        run_with_buffer(2, shallow_stalls, shallow_flits);
    sim::Tick deep_done = run_with_buffer(64, deep_stalls, deep_flits);

    EXPECT_EQ(shallow_flits, 40); // nothing dropped
    EXPECT_EQ(deep_flits, 40);
    EXPECT_GT(shallow_stalls, 0);
    EXPECT_EQ(deep_stalls, 0);
    EXPECT_GT(shallow_done, deep_done);
}

TEST(NetworkCredit, DegradedLinkAdvertisesItsStretchWhenIdle)
{
    // The capacity-aware congestion signal: an idle degraded path must
    // cost more than an idle healthy one, otherwise a topology-aware
    // dispatcher keeps trickling traffic onto the sick link until the
    // queue builds (and each trickle head-of-line blocks shared hops).
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.endpoints = 3;
    sim::Network net(eq, cfg);
    EXPECT_DOUBLE_EQ(net.pathCongestion(0, 1), 0.0);
    net.setEndpointLinkFactor(1, 40.0);
    EXPECT_GT(net.pathCongestion(0, 1), net.pathCongestion(0, 2));
    net.setEndpointLinkFactor(1, 1.0); // heal
    EXPECT_DOUBLE_EQ(net.pathCongestion(0, 1), 0.0);
    EXPECT_THROW(net.setEndpointLinkFactor(1, 0.5), sim::FatalError);
    EXPECT_THROW(net.setEndpointLinkFactor(9, 2.0), sim::FatalError);
}

TEST(NetworkArbitration, SameTickSendersInterleaveAtASharedSwitch)
{
    // Two equal 10-flit messages converge on ep2's hub link in the
    // same tick. Per-input-port round-robin must interleave them: when
    // the first message completes, the other has landed all but a
    // couple of its flits (the loser of the final arbitration round is
    // still crossing the wire). A single shared FIFO would drain one
    // message entirely first — 10 flits delivered at first completion.
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.endpoints = 3;
    cfg.flitBytes = 64.0;
    sim::Network net(eq, cfg);
    std::int64_t flits_at_first_completion = -1;
    auto on_done = [&]() {
        if (flits_at_first_completion < 0)
            flits_at_first_completion = net.flitsDelivered();
    };
    eq.schedule(0, [&]() {
        net.send(0, 2, 64.0 * 10, on_done);
        net.send(1, 2, 64.0 * 10, on_done);
    }, "inject");
    eq.run();
    EXPECT_EQ(net.flitsDelivered(), 20);
    EXPECT_GE(flits_at_first_completion, 18);
}

// ------------------------------------------------ cluster integration

TEST(FabricCluster, DisabledFabricKnobsAreInert)
{
    // The zero-network identity contract: setting every fabric knob
    // while leaving enabled == false must not perturb a single metric
    // relative to a config that never mentions the fabric.
    ClusterConfig plain = clusterConfig(3);
    ClusterConfig knobs = clusterConfig(3);
    knobs.fabric.topology = sim::Topology::FatTree;
    knobs.fabric.linkGbps = 1.0;
    knobs.fabric.linkLatencyUs = 500.0;
    knobs.fabric.linkBufferFlits = 2;
    knobs.fabric.requestPayloadBytes = 1e9;
    ASSERT_FALSE(knobs.fabric.enabled);

    ClusterResult a = ClusterSimulator(plain).run();
    ClusterResult b = ClusterSimulator(knobs).run();
    expectClusterIdentical(a, b);
    EXPECT_EQ(a.networkMessages, 0);
    EXPECT_DOUBLE_EQ(b.networkMaxLinkUtilization, 0.0);
}

TEST(FabricCluster, NetworkedRunMovesEveryRequestOverTheWire)
{
    ClusterConfig cfg = clusterConfig(3);
    cfg.fabric.enabled = true;
    ClusterResult r = ClusterSimulator(cfg).run();
    EXPECT_EQ(r.stream.completed + r.stream.shed + r.stream.lost, 400);
    // Every dispatch is one hub -> node message.
    EXPECT_GE(r.networkMessages, 400);
    EXPECT_GT(r.networkFlits, 0);
    EXPECT_GT(r.networkMaxLinkUtilization, 0.0);
    EXPECT_GE(r.networkMaxLinkUtilization,
              r.networkMeanLinkUtilization);
}

TEST(FabricCluster, NetworkedParallelMatchesSerial)
{
    for (sim::Topology topo :
         {sim::Topology::Star, sim::Topology::Mesh2D}) {
        ClusterConfig cfg = clusterConfig(3);
        cfg.fabric.enabled = true;
        cfg.fabric.topology = topo;
        ClusterResult serial = ClusterSimulator(cfg).run();
        ClusterConfig par = cfg;
        par.threads = 3;
        ClusterResult parallel = ClusterSimulator(par).run();
        SCOPED_TRACE(sim::topologyName(topo));
        EXPECT_GT(serial.networkMessages, 0);
        expectClusterEqualAcrossThreads(serial, parallel);
    }
}

TEST(FabricCluster, TopologyAwareDispatchNeedsTheFabric)
{
    ClusterConfig cfg = clusterConfig(3);
    cfg.dispatch = DispatchPolicy::TopologyAware;
    EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);
    cfg.fabric.enabled = true;
    EXPECT_NO_THROW(ClusterSimulator{cfg});
}

TEST(FabricCluster, LinkDegradeScheduleNeedsTheFabric)
{
    ClusterConfig cfg = clusterConfig(3);
    cfg.faults = std::make_shared<std::vector<FaultEvent>>(
        std::vector<FaultEvent>{
            {1.0, FaultKind::LinkDegrade, 1, 40.0, 4.0}});
    EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);
    cfg.fabric.enabled = true;
    EXPECT_NO_THROW(ClusterSimulator{cfg});
}

TEST(FabricCluster, LinkDegradeConservesRequests)
{
    // A mid-run link degrade slows traffic but must not leak requests:
    // everything that arrived is completed, shed, or counted lost.
    ClusterConfig cfg = clusterConfig(4);
    cfg.fabric.enabled = true;
    cfg.fabric.linkGbps = 1.0; // thin links so the degrade bites
    cfg.faults = std::make_shared<std::vector<FaultEvent>>(
        std::vector<FaultEvent>{
            {1.0, FaultKind::LinkDegrade, 2, 40.0, 3.0}});
    ClusterResult r = ClusterSimulator(cfg).run();
    EXPECT_FALSE(r.oom);
    EXPECT_EQ(r.stream.completed + r.stream.shed + r.stream.lost, 400);
    EXPECT_EQ(r.faultsInjected, 1);
    EXPECT_EQ(r.crashes, 0);
}

// ------------------------------------------------- train fast path
//
// Differential tests: every send stream runs twice, on a Network that
// forms trains and on a per-flit-only reference (NetworkTestPeer), each
// on its own EventQueue. Everything an observer can read must match
// exactly: per-message delivery ticks, flitsDelivered (also inside the
// delivery callbacks), creditStalls, messagesInFlight, every link's
// busy ticks and flit count, and pathCongestion for every endpoint pair
// before every operation.

namespace {

/** One operation of a replayed stream, issued at tick `at`. Ops that
 *  share a tick run back to back inside one event. */
struct NetOp
{
    enum Kind { Send, Degrade, Probe };
    Kind kind = Send;
    sim::Tick at = 0;
    int src = 0;
    int dst = 0;             ///< Send; ignored when `hosts` is set
    double bytes = 0.0;
    double factor = 1.0;     ///< Degrade: endpoint `src`'s links
    std::vector<int> hosts;  ///< Send: topology-aware pick among these
};

NetOp
sendOp(sim::Tick at, int src, int dst, double bytes)
{
    NetOp op;
    op.at = at;
    op.src = src;
    op.dst = dst;
    op.bytes = bytes;
    return op;
}

NetOp
degradeOp(sim::Tick at, int endpoint, double factor)
{
    NetOp op;
    op.kind = NetOp::Degrade;
    op.at = at;
    op.src = endpoint;
    op.factor = factor;
    return op;
}

NetOp
probeOp(sim::Tick at)
{
    NetOp op;
    op.kind = NetOp::Probe;
    op.at = at;
    return op;
}

/** Ops in issue order (stable: same-tick ops keep their order). */
void
sortByTick(std::vector<NetOp> &ops)
{
    std::stable_sort(ops.begin(), ops.end(),
                     [](const NetOp &a, const NetOp &b) {
                         return a.at < b.at;
                     });
}

/** Everything observable about one replay. */
struct NetTrace
{
    std::vector<sim::Tick> deliveredAt; ///< per send, in op order
    std::vector<int> dstOf;             ///< per send
    std::vector<double> congestion;
    std::vector<std::int64_t> counters;
    std::int64_t fallbacks = 0;
    std::int64_t creditScans = 0;
    std::uint64_t events = 0;
};

NetTrace
replay(const sim::NetworkConfig &cfg, const std::vector<NetOp> &ops,
       bool trains)
{
    sim::EventQueue eq;
    sim::Network net(eq, cfg);
    if (!trains)
        sim::NetworkTestPeer::perFlitOnly(net);
    NetTrace t;
    const int E = net.endpointCount();
    auto observe = [&](bool drained) {
        for (int s = 0; s < E; ++s)
            for (int d = 0; d < E; ++d)
                if (s != d)
                    t.congestion.push_back(net.pathCongestion(s, d));
        // After the run the per-flit queue has also executed the
        // trailing credit returns, which a train never schedules: the
        // drained clock is the one reading the two may disagree on.
        if (!drained)
            t.counters.push_back(eq.now());
        t.counters.push_back(net.flitsDelivered());
        t.counters.push_back(net.creditStalls());
        t.counters.push_back(net.messagesInFlight());
        for (int l = 0; l < net.linkCount(); ++l) {
            t.counters.push_back(net.linkBusyTicks(l));
            t.counters.push_back(net.linkFlits(l));
        }
    };
    std::vector<std::int64_t> sent(static_cast<std::size_t>(E), 0);
    std::size_t sends = 0;
    for (const NetOp &op : ops)
        sends += op.kind == NetOp::Send;
    t.deliveredAt.assign(sends, -1);
    t.dstOf.assign(sends, -1);
    std::size_t next_op = 0, next_send = 0;
    std::function<void()> issue = [&]() {
        const sim::Tick now = eq.now();
        while (next_op < ops.size() && ops[next_op].at == now) {
            const NetOp &op = ops[next_op++];
            observe(false);
            if (op.kind == NetOp::Degrade) {
                net.setEndpointLinkFactor(op.src, op.factor);
            } else if (op.kind == NetOp::Send) {
                int dst = op.dst;
                if (!op.hosts.empty()) {
                    // The cluster's topology-aware pick: least path
                    // congestion, ties to the fewest sent so far.
                    dst = op.hosts.front();
                    double best = net.pathCongestion(op.src, dst);
                    for (int h : op.hosts) {
                        double c = net.pathCongestion(op.src, h);
                        if (c < best ||
                            (c == best && sent[static_cast<std::size_t>(h)] <
                                              sent[static_cast<std::size_t>(
                                                  dst)])) {
                            dst = h;
                            best = c;
                        }
                    }
                }
                ++sent[static_cast<std::size_t>(dst)];
                std::size_t id = next_send++;
                t.dstOf[id] = dst;
                net.send(op.src, dst, op.bytes, [&, id]() {
                    t.deliveredAt[id] = eq.now();
                    t.counters.push_back(static_cast<std::int64_t>(id));
                    t.counters.push_back(net.flitsDelivered());
                });
            }
        }
        if (next_op < ops.size())
            eq.schedule(ops[next_op].at, [&issue]() { issue(); }, "issue");
    };
    if (!ops.empty())
        eq.schedule(ops.front().at, [&issue]() { issue(); }, "issue");
    eq.run();
    observe(true);
    EXPECT_EQ(net.messagesInFlight(), 0);
    t.fallbacks = net.trainFallbacks();
    t.creditScans = sim::NetworkTestPeer::creditScans(net);
    t.events = eq.executedCount();
    return t;
}

/** Equal sequences, or a failure naming the first differing index. */
template <typename T>
void
expectSameSeq(const char *what, const std::vector<T> &train,
              const std::vector<T> &flit)
{
    std::size_t n = std::min(train.size(), flit.size());
    for (std::size_t i = 0; i < n; ++i)
        if (!(train[i] == flit[i])) {
            ADD_FAILURE() << what << "[" << i << "]: train " << train[i]
                          << ", per-flit " << flit[i];
            return;
        }
    EXPECT_EQ(train.size(), flit.size()) << what;
}

/** Replays @p ops both ways and requires identical observations. */
NetTrace
expectTrainsExact(const sim::NetworkConfig &cfg,
                  const std::vector<NetOp> &ops)
{
    NetTrace train = replay(cfg, ops, /*trains=*/true);
    NetTrace flit = replay(cfg, ops, /*trains=*/false);
    expectSameSeq("deliveredAt", train.deliveredAt, flit.deliveredAt);
    expectSameSeq("dstOf", train.dstOf, flit.dstOf);
    expectSameSeq("counters", train.counters, flit.counters);
    expectSameSeq("congestion", train.congestion, flit.congestion);
    for (sim::Tick t : train.deliveredAt)
        EXPECT_GE(t, 0);
    return train;
}

sim::NetworkConfig
smallFlits(int endpoints)
{
    sim::NetworkConfig cfg;
    cfg.endpoints = endpoints;
    cfg.flitBytes = 64.0;
    return cfg;
}

/** Poisson hub -> node dispatches plus node -> node transfers, probes
 *  in between, on a `nodes`-node fabric whose hub is endpoint `nodes`. */
std::vector<NetOp>
fabricStream(int nodes, int count, double rate_per_sec,
             double node_to_node, std::uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<NetOp> ops;
    double t = 0.0;
    for (int i = 0; i < count; ++i) {
        t += rng.exponential(1.0 / rate_per_sec);
        sim::Tick at = sim::fromSeconds(t);
        int dst = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(nodes)));
        if (rng.uniformDouble() < node_to_node) {
            int src = static_cast<int>(rng.uniformInt(
                static_cast<std::uint64_t>(nodes)));
            ops.push_back(sendOp(at, src, dst, 4.0e6));
        } else {
            ops.push_back(sendOp(at, nodes, dst, 1.0e6 + 2048.0));
        }
        ops.push_back(probeOp(at + sim::fromUs(rng.uniformDouble() * 500)));
    }
    sortByTick(ops);
    return ops;
}

} // namespace

TEST(NetworkTrain, ExistingScenariosMatchThePerFlitModel)
{
    // MessageArrivesWholeAndInFlightDrains.
    expectTrainsExact(smallFlits(2), {sendOp(0, 0, 1, 64.0 * 10)});
    // LocalSendTouchesNoLink.
    expectTrainsExact(smallFlits(2), {sendOp(0, 0, 0, 1e9)});
    // ExhaustionStallsButDeliversEverything, both buffer depths.
    for (int buffer : {2, 64}) {
        sim::NetworkConfig cfg = smallFlits(2);
        cfg.bufferFlits = buffer;
        NetTrace t = expectTrainsExact(cfg, {sendOp(0, 0, 1, 64.0 * 40)});
        SCOPED_TRACE(buffer);
        EXPECT_EQ(t.fallbacks, buffer == 2 ? 1 : 0);
    }
    // SameTickSendersInterleaveAtASharedSwitch.
    NetTrace same = expectTrainsExact(
        smallFlits(3),
        {sendOp(0, 0, 2, 64.0 * 10), sendOp(0, 1, 2, 64.0 * 10)});
    EXPECT_GT(same.fallbacks, 0);
    // DegradedLinkAdvertisesItsStretchWhenIdle, then traffic over it.
    expectTrainsExact(smallFlits(3),
                      {degradeOp(0, 1, 40.0), sendOp(0, 0, 1, 6400.0),
                       sendOp(0, 0, 2, 6400.0), degradeOp(5, 1, 1.0)});
    // Exact-tick edges at ep2's hub link (2560-tick flits, 2 us hops):
    // the 1 -> 2 train's last flit leaves it at tick 2,025,600 and the
    // link is free again at 2,028,160.
    //  - a second port landing in the very tick the last flit leaves
    //    (sent at 23,040): arbitration, even though the queue looks
    //    empty to the train ahead;
    //  - a 4x-slow port landing while that last flit serializes (sent
    //    at 16,000 over degraded ep0 links): it waits for the wire,
    //    then arrives slower than the link drains, so no single pitch.
    for (sim::Tick second : {23'040, 16'000}) {
        std::vector<NetOp> ops = {sendOp(0, 1, 2, 64.0 * 10),
                                  sendOp(second, 0, 2, 64.0 * 10)};
        if (second == 16'000)
            ops.insert(ops.begin(), degradeOp(0, 0, 4.0));
        SCOPED_TRACE(second);
        EXPECT_GT(expectTrainsExact(smallFlits(3), ops).fallbacks, 0);
    }
    // Two trains landing in the same tick, handed over before they
    // land: 2 -> 3 crosses a 4x-slow last hop, so its last flit leaves
    // first, and its completion must fire first too.
    expectTrainsExact(smallFlits(4),
                      {degradeOp(0, 3, 4.0), sendOp(0, 2, 3, 64.0 * 10),
                       sendOp(76'800, 0, 1, 64.0 * 10),
                       sendOp(3'000'000, 0, 2, 64.0 * 10),
                       sendOp(3'000'000, 1, 2, 64.0 * 10)});
    // Route shapes: corner to corner on mesh / torus, cross-leaf.
    for (sim::Topology topo :
         {sim::Topology::Mesh2D, sim::Topology::Torus2D,
          sim::Topology::FatTree}) {
        sim::NetworkConfig cfg = smallFlits(9);
        cfg.topology = topo;
        cfg.meshCols = 3;
        SCOPED_TRACE(sim::topologyName(topo));
        expectTrainsExact(cfg, {sendOp(0, 0, 8, 64.0 * 30),
                                sendOp(1, 8, 0, 64.0 * 30),
                                sendOp(sim::fromUs(3), 2, 6, 64.0 * 30)});
    }
}

TEST(NetworkTrain, BackToBackTrainsQueueWithoutFallingBack)
{
    // One source, one port: a second message sent while the first is
    // still serializing queues behind it. FIFO, not arbitration, so
    // both stay trains.
    sim::NetworkConfig cfg;
    cfg.topology = sim::Topology::Mesh2D;
    cfg.endpoints = 9;
    NetTrace t = expectTrainsExact(
        cfg, {sendOp(0, 8, 0, 1e6), sendOp(sim::fromUs(5), 8, 1, 1e6),
              sendOp(sim::fromUs(5), 8, 0, 2e5), probeOp(sim::fromUs(30)),
              probeOp(sim::fromUs(44))});
    EXPECT_EQ(t.fallbacks, 0);
}

TEST(NetworkTrain, InterconnectCornersMatchThePerFlitModel)
{
    // abl_interconnect's corners: 1 Gb/s links, a 40x degrade landing
    // mid-train on node 2 and healing later, on star, mesh, and
    // fat-tree, with node -> node transfers contending at switches.
    for (sim::Topology topo :
         {sim::Topology::Star, sim::Topology::Mesh2D,
          sim::Topology::FatTree}) {
        const int nodes = 4;
        sim::NetworkConfig cfg;
        cfg.topology = topo;
        cfg.endpoints = nodes + 1;
        cfg.linkBytesPerSec = 1e9 / 8.0;
        cfg.fatTreeRadix = 2;
        std::vector<NetOp> ops =
            fabricStream(nodes, 160, 40.0, 0.15, 7);
        // Land the degrade 1 ms into the 40th dispatch's serialization.
        sim::Tick hit = ops[80].at + sim::fromMs(1.0);
        ops.push_back(degradeOp(hit, 2, 40.0));
        ops.push_back(degradeOp(hit + sim::fromSeconds(1.0), 2, 1.0));
        for (std::size_t i = 0; i < ops.size(); i += 10) {
            NetOp pick = ops[i];
            if (pick.kind == NetOp::Send && pick.src == nodes) {
                pick.at += 1; // dispatch with a topology-aware choice
                pick.hosts = {1, 2, 3};
                ops.push_back(pick);
            }
        }
        sortByTick(ops);
        SCOPED_TRACE(sim::topologyName(topo));
        NetTrace t = expectTrainsExact(cfg, ops);
        EXPECT_GT(t.fallbacks, 0); // the corner really contends
    }
}

TEST(NetworkTrain, ClusterMeshDispatchStreamMatchesThePerFlitModel)
{
    // The cluster_mesh shape: 8 nodes + hub on a 3x3 mesh, 200 Gb/s,
    // every request a 1 MB dispatch to the least-congested of its
    // expert's hosts. At 96 req/s plus a 20x-denser copy so that
    // dispatches overlap on the hub's links.
    for (double rate : {96.0, 2000.0}) {
        sim::Rng rng(42);
        sim::NetworkConfig cfg;
        cfg.topology = sim::Topology::Mesh2D;
        cfg.endpoints = 9;
        cfg.linkBytesPerSec = 200e9 / 8.0;
        std::vector<NetOp> ops;
        double t = 0.0;
        for (int i = 0; i < 1500; ++i) {
            t += rng.exponential(1.0 / rate);
            NetOp op = sendOp(sim::fromSeconds(t), 8, 0, 1.0e6 + 2048.0);
            int a = static_cast<int>(rng.uniformInt(8));
            int b = static_cast<int>(rng.uniformInt(8));
            op.hosts = a == b ? std::vector<int>{a} : std::vector<int>{a, b};
            ops.push_back(op);
        }
        SCOPED_TRACE(rate);
        NetTrace tr = expectTrainsExact(cfg, ops);
        // The hub's routes form a tree: nothing ever contends.
        EXPECT_EQ(tr.fallbacks, 0);
        // Every 245-flit dispatch overruns a 64-flit buffer, yet the
        // closed-form admission check decides each one alone.
        if (rate == 96.0) {
            EXPECT_EQ(tr.creditScans, 0);
        }
    }
}

TEST(NetworkTrain, RandomStreamsMatchThePerFlitModel)
{
    // Random topologies, buffer depths, message sizes, and send ticks
    // on a coarse grid (so same-tick sends and exact-tick coincidences
    // happen), with degrades mixed in.
    std::int64_t sends = 0, fallbacks = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        sim::Rng rng(seed);
        sim::NetworkConfig cfg;
        cfg.topology = static_cast<sim::Topology>(rng.uniformInt(4));
        cfg.endpoints = 2 + static_cast<int>(rng.uniformInt(8));
        cfg.bufferFlits = 1 + static_cast<int>(rng.uniformInt(40));
        cfg.flitBytes = 256.0;
        cfg.maxFlitsPerMessage = 48;
        cfg.linkBytesPerSec = 1e9;
        cfg.linkLatency = sim::fromNs(50.0 + 10.0 * rng.uniformInt(20));
        cfg.fatTreeRadix = 2;
        std::vector<NetOp> ops;
        for (int i = 0; i < 60; ++i) {
            // Odd seeds crowd 60 ops into 400 us, even ones spread
            // them over 20 ms.
            sim::Tick at = sim::fromUs(static_cast<double>(
                rng.uniformInt(seed % 2 ? 400 : 20000)));
            double roll = rng.uniformDouble();
            int a = static_cast<int>(rng.uniformInt(
                static_cast<std::uint64_t>(cfg.endpoints)));
            int b = static_cast<int>(rng.uniformInt(
                static_cast<std::uint64_t>(cfg.endpoints)));
            if (roll < 0.05)
                ops.push_back(degradeOp(at, a, 1.0 + rng.uniformInt(8)));
            else if (roll < 0.2)
                ops.push_back(probeOp(at + 7));
            else
                ops.push_back(sendOp(at, a, b,
                                     64.0 + rng.uniformDouble() * 20000.0));
        }
        sortByTick(ops);
        SCOPED_TRACE("seed " + std::to_string(seed));
        NetTrace t = expectTrainsExact(cfg, ops);
        sends += static_cast<std::int64_t>(t.deliveredAt.size());
        fallbacks += t.fallbacks;
    }
    // Both paths and the hand-over between them were exercised.
    EXPECT_GT(fallbacks, 0);
    EXPECT_LT(fallbacks, sends * 3 / 4);
}

TEST(NetworkTrain, UncontendedSendsCostOneEventPerMessage)
{
    // Uncontended 1 MB sends between every ordered pair of a 9-endpoint
    // mesh (1 to 4 hops, 245 flits each), one at a time: each message
    // is exactly one event — its delivery — on top of the event that
    // issues it, where the per-flit model pays ~3 events per flit-hop.
    sim::NetworkConfig cfg;
    cfg.topology = sim::Topology::Mesh2D;
    cfg.endpoints = 9;
    std::vector<NetOp> ops;
    sim::Tick at = 0;
    for (int s = 0; s < 9; ++s)
        for (int d = 0; d < 9; ++d)
            if (s != d) {
                ops.push_back(sendOp(at, s, d, 1e6));
                at += sim::fromMs(1.0);
            }
    NetTrace train = expectTrainsExact(cfg, ops);
    EXPECT_EQ(train.fallbacks, 0);
    EXPECT_EQ(train.events, 2 * ops.size());
    NetTrace flit = replay(cfg, ops, /*trains=*/false);
    EXPECT_EQ(flit.fallbacks, static_cast<std::int64_t>(ops.size()));
    EXPECT_GT(flit.events, 500 * ops.size());
}

TEST(NetworkTrain, CreditWindowClosedFormMatchesTheScan)
{
    // Random trains against 0-3 earlier live trains on one link: the
    // closed-form admission check (with its scan fallback) must give
    // the per-flit scan's answer on every case. Credit ticks often land
    // exactly on departure ticks, where a tie counts as binding.
    using Peer = sim::NetworkTestPeer;
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.endpoints = 2;
    sim::Network net(eq, cfg);
    sim::Rng rng(2024);
    auto pick = [&rng](int lo, int hi) {
        return lo + static_cast<int>(rng.uniformInt(
                        static_cast<std::uint64_t>(hi - lo + 1)));
    };
    auto train = [&pick]() {
        Peer::Train t;
        t.flits = pick(1, 256);
        t.pitch = pick(0, 8);
        t.creditPitch = t.pitch + (pick(0, 1) ? 0 : pick(1, 4));
        return t;
    };
    const int cases = 60'000;
    int held = 0, refused = 0, scanned = 0; // by the path that decided
    for (int c = 0; c < cases; ++c) {
        Peer::setBufferFlits(net, pick(1, 128));
        Peer::Train t = train();
        t.depart0 = 10'000 + pick(0, 50);
        t.credit0 = t.depart0 + pick(0, 400);
        if (pick(0, 1)) // land the first credit on a departure tick
            t.credit0 = t.departAt(pick(0, t.flits - 1));
        Peer::Link l{};
        const int others = pick(0, 3);
        for (int o = 0; o < others; ++o) {
            Peer::Train ot = train();
            ot.credit0 = t.depart0 + pick(-900, 300);
            if (pick(0, 1)) // some credit lands on one of t's departures
                ot.credit0 = t.departAt(pick(0, t.flits - 1)) -
                    pick(0, ot.flits - 1) * ot.creditPitch;
            l.trains.push_back(ot);
        }
        const bool scan = Peer::creditsScan(net, l, t);
        const std::int64_t scans = Peer::creditScans(net);
        if (Peer::creditsHold(net, l, t) != scan) {
            ADD_FAILURE() << "case " << c << ": closed form says " << !scan
                          << ", scan says " << scan << " (flits " << t.flits
                          << ", pitch " << t.pitch << ", creditPitch "
                          << t.creditPitch << ", others " << others << ")";
            return;
        }
        if (Peer::creditScans(net) != scans)
            ++scanned;
        else
            ++(scan ? held : refused);
    }
    // Every path was taken: closed-form admit, exact closed-form
    // refusal (no other train holds credits), and the scan fallback.
    EXPECT_GT(held, cases / 10);
    EXPECT_GT(refused, cases / 10);
    EXPECT_GT(scanned, cases / 10);
}

TEST(NetworkTrain, UnrepresentableSerializationIsFatal)
{
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.endpoints = 2;
    sim::Network net(eq, cfg);
    // 1e30 bytes in 256 flits at 25 GB/s: ~1e19 s per flit.
    EXPECT_THROW(net.send(0, 1, 1e30, nullptr), sim::FatalError);
    // A NaN size has no flit count at all.
    EXPECT_THROW(net.send(0, 1, std::nan(""), nullptr), sim::FatalError);
    EXPECT_EQ(net.messagesInFlight(), 0);

    coe::FabricConfig fab;
    fab.enabled = true;
    fab.linkGbps = 1e-30;
    try {
        coe::validateFabricConfig(fab);
        ADD_FAILURE() << "1e-30 Gb/s links must not validate";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("--link-gbps"),
                  std::string::npos)
            << e.what();
    }
}

// -------------------------------------------------- RDN replay bridge

TEST(RdnReplay, EmptyOrIdleFlowSetsCostNothing)
{
    EXPECT_DOUBLE_EQ(
        arch::simulatedCongestionFactor({}, 4, 4, 1e9), 1.0);
    // Zero-rate and self flows are skipped, not fatal.
    std::vector<arch::MeshFlow> idle = {
        {{0, 0}, {3, 3}, 0.0},
        {{1, 1}, {1, 1}, 5e9},
    };
    EXPECT_DOUBLE_EQ(
        arch::simulatedCongestionFactor(idle, 4, 4, 1e9), 1.0);
}

TEST(RdnReplay, OversubscriptionDilatesMonotonically)
{
    // Eight flows funneling through column x=0 at 4x the link rate
    // must dilate well past an undersubscribed copy of the same set.
    auto funnel = [](double rate) {
        std::vector<arch::MeshFlow> flows;
        for (int y = 0; y < 8; ++y)
            flows.push_back({{0, y}, {3, y}, rate});
        return flows;
    };
    const double link_bw = 1e9;
    double light =
        arch::simulatedCongestionFactor(funnel(1e8), 4, 8, link_bw);
    double heavy =
        arch::simulatedCongestionFactor(funnel(4e9), 4, 8, link_bw);
    EXPECT_GE(light, 1.0);
    EXPECT_GT(heavy, light);
    EXPECT_GT(heavy, 1.5);
    EXPECT_THROW(
        arch::simulatedCongestionFactor(funnel(1e9), 0, 8, link_bw),
        sim::FatalError);
}

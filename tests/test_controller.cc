/**
 * @file
 * Tests for the autoscaling control plane and the observable/actuable
 * cluster API it is built on: controller policy name tables and
 * config validation, bit-identity of inert controllers against plain
 * runs, actuator idempotence through begin()/finish(), windowed
 * MetricsSnapshot observation, and the reactive policy's
 * node-hours-for-same-work win on a replayed diurnal trace.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "coe/cluster.h"
#include "coe/workload.h"
#include "sim/log.h"
#include "sim/ticks.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

ClusterConfig
clusterConfig(int nodes)
{
    ClusterConfig cfg;
    cfg.nodes = nodes;
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
    EXPECT_DOUBLE_EQ(a.meanQueueDepth, b.meanQueueDepth);
    EXPECT_DOUBLE_EQ(a.maxQueueDepth, b.maxQueueDepth);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.shed, b.shed);
}

/** Record a diurnal open-loop stream in memory (no file round trip). */
std::shared_ptr<const std::vector<TraceEntry>>
recordDiurnalTrace(const ServingConfig &gen)
{
    sim::EventQueue eq;
    std::unique_ptr<WorkloadModel> model = makeWorkloadModel(gen);
    auto entries = std::make_shared<std::vector<TraceEntry>>();
    model->bind(eq, [&](const TrafficRequest &r) {
        entries->push_back({r, eq.now()});
    });
    model->start();
    eq.run();
    return entries;
}

} // namespace

// ------------------------------------------------------- name tables

TEST(ControllerPolicies, NamesRoundTrip)
{
    EXPECT_EQ(controllerPolicyFromName("static"),
              ControllerPolicy::Static);
    EXPECT_EQ(controllerPolicyFromName("none"),
              ControllerPolicy::Static);
    EXPECT_EQ(controllerPolicyFromName("reactive"),
              ControllerPolicy::ReactiveThreshold);
    EXPECT_EQ(controllerPolicyFromName("reactive-threshold"),
              ControllerPolicy::ReactiveThreshold);
    EXPECT_EQ(controllerPolicyFromName("target-util"),
              ControllerPolicy::TargetUtilization);
    EXPECT_THROW(controllerPolicyFromName("magic"), sim::FatalError);
    EXPECT_STREQ(controllerPolicyName(ControllerPolicy::Static),
                 "static");
    EXPECT_STREQ(
        controllerPolicyName(ControllerPolicy::ReactiveThreshold),
        "reactive");
    EXPECT_STREQ(
        controllerPolicyName(ControllerPolicy::TargetUtilization),
        "target-util");
}

TEST(ControllerPolicies, ConfigValidation)
{
    ControllerConfig cfg;
    cfg.policy = ControllerPolicy::ReactiveThreshold;
    validateControllerConfig(cfg, 4); // defaults are valid

    ControllerConfig bad = cfg;
    bad.tickSeconds = 0.0;
    EXPECT_THROW(validateControllerConfig(bad, 4), sim::FatalError);

    bad = cfg;
    bad.minNodes = 5;
    EXPECT_THROW(validateControllerConfig(bad, 4), sim::FatalError);

    bad = cfg;
    bad.maxNodes = 5;
    EXPECT_THROW(validateControllerConfig(bad, 4), sim::FatalError);

    bad = cfg;
    bad.scaleUpQueueDepth = 0.2; // below the scale-down depth
    EXPECT_THROW(validateControllerConfig(bad, 4), sim::FatalError);

    bad = cfg;
    bad.targetUtilization = 1.5;
    EXPECT_THROW(validateControllerConfig(bad, 4), sim::FatalError);

    // NaN used to pass every one of these checks (and a NaN tick
    // panicked in the event queue).
    const double nan = std::nan("");
    for (double ControllerConfig::*field :
         {&ControllerConfig::tickSeconds,
          &ControllerConfig::scaleUpQueueDepth,
          &ControllerConfig::scaleDownQueueDepth,
          &ControllerConfig::targetUtilization}) {
        bad = cfg;
        bad.*field = nan;
        EXPECT_THROW(validateControllerConfig(bad, 4), sim::FatalError);
    }
    bad = cfg;
    bad.tickSeconds = 1e300; // past the Tick range
    EXPECT_THROW(validateControllerConfig(bad, 4), sim::FatalError);

    // Every knob is inert under Static, including bad ones.
    bad = cfg;
    bad.policy = ControllerPolicy::Static;
    bad.tickSeconds = -1.0;
    validateControllerConfig(bad, 4);
}

// ----------------------------------------- inert-controller identity

TEST(ScheduledActions, StaticControllerConfigIsInert)
{
    ClusterConfig plain = clusterConfig(4);

    ClusterConfig with = clusterConfig(4);
    with.controller.policy = ControllerPolicy::Static;
    with.controller.tickSeconds = 0.25; // inert under Static
    with.controller.minNodes = 2;

    ClusterResult a = ClusterSimulator(plain).run();
    ClusterResult b = ClusterSimulator(with).run();
    expectStreamEq(a.stream, b.stream);
    EXPECT_EQ(a.stream.eventsExecuted, b.stream.eventsExecuted);
    EXPECT_EQ(b.controllerTicks, 0);
    EXPECT_EQ(b.controllerActions, 0);
}

TEST(ScheduledActions, UnityRateOverrideOnlyAddsItsEvent)
{
    ClusterConfig plain = clusterConfig(4);

    ClusterConfig with = clusterConfig(4);
    ScheduledAction rate;
    rate.kind = ActionKind::RateOverride;
    rate.atSeconds = 2.0;
    rate.rateFactor = 1.0; // multiplies the gaps exactly
    with.actions = {rate};

    ClusterResult a = ClusterSimulator(plain).run();
    ClusterResult b = ClusterSimulator(with).run();
    expectStreamEq(a.stream, b.stream);
    EXPECT_EQ(a.stream.eventsExecuted + 1, b.stream.eventsExecuted);
}

TEST(ScheduledActions, HalvedRateStretchesTheRun)
{
    ClusterConfig plain = clusterConfig(2);

    ClusterConfig with = clusterConfig(2);
    ScheduledAction rate;
    rate.kind = ActionKind::RateOverride;
    rate.atSeconds = 1.0;
    rate.rateFactor = 0.5;
    with.actions = {rate};

    ClusterResult a = ClusterSimulator(plain).run();
    ClusterResult b = ClusterSimulator(with).run();
    EXPECT_EQ(b.stream.completed, a.stream.completed); // nothing lost
    EXPECT_GT(b.stream.makespanSeconds, a.stream.makespanSeconds);
}

// --------------------------------------------- begin/finish API

TEST(ClusterApi, ActuatorsAreIdempotentAndLossless)
{
    ClusterConfig cfg = clusterConfig(4);
    ClusterSimulator sim(cfg);
    ASSERT_TRUE(sim.begin());

    EXPECT_EQ(sim.liveNodes(), 4);
    EXPECT_TRUE(sim.drainNode(1));
    EXPECT_FALSE(sim.drainNode(1)); // already drained
    EXPECT_EQ(sim.liveNodes(), 3);
    EXPECT_TRUE(sim.rejoinNode(1));
    EXPECT_FALSE(sim.rejoinNode(1)); // already live
    EXPECT_EQ(sim.liveNodes(), 4);

    // Never drain below one live node.
    EXPECT_TRUE(sim.drainNode(3));
    EXPECT_TRUE(sim.drainNode(2));
    EXPECT_TRUE(sim.drainNode(1));
    EXPECT_FALSE(sim.drainNode(0));
    EXPECT_EQ(sim.liveNodes(), 1);
    EXPECT_TRUE(sim.rejoinNode(1));
    EXPECT_TRUE(sim.rejoinNode(2));
    EXPECT_TRUE(sim.rejoinNode(3));

    sim.eventQueue().run();
    ClusterResult r = sim.finish();
    EXPECT_FALSE(r.oom);
    EXPECT_EQ(r.stream.completed + r.stream.shed,
              cfg.node.streamRequests);
}

TEST(ClusterApi, ReplicationAndMigrationActuators)
{
    ClusterConfig cfg = clusterConfig(4);
    cfg.placement = PlacementPolicy::BalancedPartition;
    ClusterSimulator sim(cfg);
    ASSERT_TRUE(sim.begin());

    const ExpertPlacement &p = sim.placement();
    ASSERT_EQ(static_cast<int>(p.hostsOfExpert.size()),
              cfg.node.numExperts);
    ASSERT_EQ(p.hostsOfExpert[0].size(), 1u); // partitioned
    int home = p.hostsOfExpert[0][0];

    // Replicate expert 0 everywhere, then back down to one copy.
    EXPECT_TRUE(sim.setReplication(0, 4));
    EXPECT_FALSE(sim.setReplication(0, 4)); // already there
    EXPECT_EQ(p.hostsOfExpert[0].size(), 4u);
    EXPECT_TRUE(sim.setReplication(0, 1));
    EXPECT_EQ(p.hostsOfExpert[0].size(), 1u);

    // Migrate expert 1 off its home; a no-op migration reports false.
    int from = p.hostsOfExpert[1][0];
    int to = (from + 1) % 4;
    EXPECT_TRUE(sim.migrateExpert(1, from, to));
    EXPECT_FALSE(sim.migrateExpert(1, from, to)); // not hosted there now
    EXPECT_EQ(p.hostsOfExpert[1][0], to);
    (void)home;

    sim.eventQueue().run();
    ClusterResult r = sim.finish();
    EXPECT_EQ(r.stream.completed + r.stream.shed,
              cfg.node.streamRequests);
}

TEST(ClusterApi, SnapshotWindowsAdvance)
{
    ClusterConfig cfg = clusterConfig(4);
    ClusterSimulator sim(cfg);
    ASSERT_TRUE(sim.begin());

    MetricsSnapshot s1, s2;
    sim.eventQueue().scheduleIn(
        sim::fromSeconds(1.0), [&]() { s1 = sim.snapshot(); },
        "test.probe1");
    sim.eventQueue().scheduleIn(
        sim::fromSeconds(2.5), [&]() { s2 = sim.snapshot(); },
        "test.probe2");
    sim.eventQueue().run();
    ClusterResult r = sim.finish();

    EXPECT_NEAR(s1.atSeconds, 1.0, 1e-9);
    EXPECT_NEAR(s1.windowSeconds, 1.0, 1e-9);
    EXPECT_EQ(s1.liveNodes, 4);
    EXPECT_GT(s1.arrivalRatePerSec, 0.0); // 64 req/s offered
    EXPECT_NEAR(s2.atSeconds, 2.5, 1e-9);
    EXPECT_NEAR(s2.windowSeconds, 1.5, 1e-9); // since the previous one
    EXPECT_EQ(static_cast<int>(s2.expertHits.size()),
              cfg.node.numExperts);
    EXPECT_NEAR(s1.nodeSecondsLive, 4.0, 1e-9); // 4 nodes, 1 s in
    EXPECT_EQ(r.stream.completed + r.stream.shed,
              cfg.node.streamRequests);
}

// -------------------------------------------------- control loop

TEST(Controller, ReactiveSavesNodeHoursOnDiurnalTrace)
{
    ServingConfig gen;
    gen.mode = ServingMode::EventDriven;
    gen.numExperts = 150;
    gen.batch = 8;
    gen.streamRequests = 3000;
    gen.arrivalRatePerSec = 24.0;
    gen.routing = RoutingDistribution::Zipf;
    gen.zipfS = 1.0;
    gen.seed = 7;
    gen.workload.shape.diurnalAmplitude = 0.75;
    gen.workload.shape.diurnalPeriodSeconds = 3000.0 / 24.0 / 3.0;

    ClusterConfig base = clusterConfig(4);
    base.node = gen;
    base.node.workload.shape = RateShape{};
    base.node.workload.traceEntries = recordDiurnalTrace(gen);

    ClusterConfig reactive = base;
    reactive.controller.policy = ControllerPolicy::ReactiveThreshold;
    reactive.controller.minNodes = 1;
    reactive.controller.scaleUpQueueDepth = 2.0;
    reactive.controller.scaleDownQueueDepth = 0.25;

    ClusterResult st = ClusterSimulator(base).run();
    ClusterResult re = ClusterSimulator(reactive).run();

    ASSERT_FALSE(st.oom);
    ASSERT_FALSE(re.oom);
    EXPECT_EQ(st.stream.completed + st.stream.shed, 3000);
    EXPECT_EQ(re.stream.completed + re.stream.shed, 3000);
    EXPECT_GT(re.controllerTicks, 0);
    EXPECT_GT(re.controllerActions, 0);
    EXPECT_EQ(st.controllerTicks, 0);
    EXPECT_LT(re.nodeHours, st.nodeHours);
}

TEST(Controller, TargetUtilizationRunCompletes)
{
    ClusterConfig cfg = clusterConfig(4);
    cfg.node.streamRequests = 1500;
    cfg.controller.policy = ControllerPolicy::TargetUtilization;
    cfg.controller.minNodes = 1;
    cfg.controller.targetUtilization = 0.7;

    ClusterResult r = ClusterSimulator(cfg).run();
    ASSERT_FALSE(r.oom);
    EXPECT_EQ(r.stream.completed + r.stream.shed, 1500);
    EXPECT_GT(r.controllerTicks, 0);
    EXPECT_GT(r.nodeSecondsLive, 0.0);
}

TEST(Controller, HotExpertTrackingReplicatesAndCompletes)
{
    ClusterConfig cfg = clusterConfig(4);
    cfg.placement = PlacementPolicy::BalancedPartition;
    cfg.node.streamRequests = 1500;
    cfg.controller.policy = ControllerPolicy::ReactiveThreshold;
    cfg.controller.minNodes = 4; // isolate the hot-expert actuator
    cfg.controller.hotExpertTrack = 5;

    ClusterSimulator sim(cfg);
    ClusterResult tracked = sim.run();
    ASSERT_FALSE(tracked.oom);
    EXPECT_EQ(tracked.stream.completed + tracked.stream.shed, 1500);
    EXPECT_GT(tracked.controllerActions, 0);
    // The tracker boosted hot experts mid-run (and reverted them as
    // they cooled — the final placement returning to baseline is the
    // revert path working, so count the changes, not the end state).
    EXPECT_GT(sim.stats().get("replication_changes"), 0.0);
}

TEST(Controller, DeterministicAcrossRepeats)
{
    ClusterConfig cfg = clusterConfig(4);
    cfg.node.streamRequests = 1000;
    cfg.controller.policy = ControllerPolicy::ReactiveThreshold;
    cfg.controller.minNodes = 1;

    ClusterResult a = ClusterSimulator(cfg).run();
    ClusterResult b = ClusterSimulator(cfg).run();
    expectStreamEq(a.stream, b.stream);
    EXPECT_EQ(a.stream.eventsExecuted, b.stream.eventsExecuted);
    EXPECT_EQ(a.controllerTicks, b.controllerTicks);
    EXPECT_EQ(a.controllerActions, b.controllerActions);
    EXPECT_DOUBLE_EQ(a.nodeSecondsLive, b.nodeSecondsLive);
}

/**
 * @file
 * Chaos-layer tests (coe/faults.h): fault-kind name tables, schedule
 * and policy validation, the strict JSONL fault-schedule loader and
 * its corruption matrix (every malformed file dies with a FatalError
 * naming the offending line), fault semantics on a live cluster
 * (crash conservation, retry recovery, hedge accounting), the -j 1 /
 * -j N bit-identity of a faulted run, and the zero-fault golden lock:
 * an empty-but-present schedule plus default policy knobs must be
 * bit-identical to a cluster that never heard of the chaos layer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "coe/faults.h"
#include "sim/log.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

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

/** The 4-node Zipf cluster anchor shared with test_cluster.cc. */
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

std::shared_ptr<const std::vector<FaultEvent>>
schedule(std::vector<FaultEvent> events)
{
    return std::make_shared<const std::vector<FaultEvent>>(
        std::move(events));
}

/**
 * Write @p text verbatim, load it, and expect a FatalError whose
 * message contains @p fragment (typically "line N"), so corruption
 * reports point at the offending line, not just "bad file".
 */
void
expectLoadDies(const std::string &text, const std::string &fragment)
{
    TempFile f("corrupt_faults.jsonl");
    {
        std::ofstream out(f.path);
        out << text;
    }
    try {
        loadFaultSchedule(f.path);
        FAIL() << "expected FatalError containing '" << fragment
               << "'";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(fragment),
                  std::string::npos)
            << "error was: " << e.what();
    }
}

void
expectStreamBitIdentical(const StreamMetrics &a, const StreamMetrics &b)
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
    EXPECT_DOUBLE_EQ(a.meanBatchOccupancy, b.meanBatchOccupancy);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.lost, b.lost);
    EXPECT_EQ(a.retried, b.retried);
    EXPECT_EQ(a.hedged, b.hedged);
    EXPECT_EQ(a.hedgeWon, b.hedgeWon);
    EXPECT_EQ(a.batches, b.batches);
}

} // namespace

// ------------------------------------------------------- name tables

TEST(FaultKinds, NamesRoundTrip)
{
    EXPECT_EQ(faultKindFromName("crash"), FaultKind::NodeCrash);
    EXPECT_EQ(faultKindFromName("dma-stall"), FaultKind::DmaStall);
    EXPECT_EQ(faultKindFromName("straggler"), FaultKind::Straggler);
    EXPECT_EQ(faultKindFromName("flaky"), FaultKind::FlakyNode);
    EXPECT_THROW(faultKindFromName("meteor"), sim::FatalError);
    for (FaultKind k :
         {FaultKind::NodeCrash, FaultKind::DmaStall,
          FaultKind::Straggler, FaultKind::FlakyNode})
        EXPECT_EQ(faultKindFromName(faultKindName(k)), k);
}

// -------------------------------------------------------- validation

TEST(FaultValidation, ScheduleRejectsMalformedEvents)
{
    auto one = [](FaultEvent e) { return std::vector<FaultEvent>{e}; };
    FaultEvent ok;
    ok.atSeconds = 1.0;
    ok.kind = FaultKind::Straggler;
    ok.factor = 2.0;
    validateFaultSchedule(one(ok), 4); // sane event passes

    FaultEvent bad = ok;
    bad.atSeconds = -1.0;
    EXPECT_THROW(validateFaultSchedule(one(bad), 4), sim::FatalError);

    bad = ok;
    bad.node = 4; // == nodes
    EXPECT_THROW(validateFaultSchedule(one(bad), 4), sim::FatalError);
    validateFaultSchedule(one(bad), 0); // nodes unknown: range skipped

    bad = ok;
    bad.durationSeconds = -0.5;
    EXPECT_THROW(validateFaultSchedule(one(bad), 4), sim::FatalError);

    bad = ok;
    bad.factor = 0.5; // stretch < 1
    EXPECT_THROW(validateFaultSchedule(one(bad), 4), sim::FatalError);

    bad = ok;
    bad.kind = FaultKind::FlakyNode;
    bad.factor = 1.5; // probability > 1
    EXPECT_THROW(validateFaultSchedule(one(bad), 4), sim::FatalError);

    // Out-of-order fire times.
    FaultEvent late = ok, early = ok;
    late.atSeconds = 2.0;
    early.atSeconds = 1.0;
    EXPECT_THROW(validateFaultSchedule({late, early}, 4),
                 sim::FatalError);
}

TEST(FaultValidation, PolicyRejectsContradictoryKnobs)
{
    FaultPolicyConfig ok;
    validateFaultPolicy(ok); // defaults are valid (and inert)

    FaultPolicyConfig bad;
    bad.retryMax = -1;
    EXPECT_THROW(validateFaultPolicy(bad), sim::FatalError);

    bad = FaultPolicyConfig{};
    bad.retryBackoffSeconds = -0.1;
    EXPECT_THROW(validateFaultPolicy(bad), sim::FatalError);

    bad = FaultPolicyConfig{};
    bad.retryBudget = -2;
    EXPECT_THROW(validateFaultPolicy(bad), sim::FatalError);

    bad = FaultPolicyConfig{};
    bad.hedgeThreshold = 0.0;
    EXPECT_THROW(validateFaultPolicy(bad), sim::FatalError);

    bad = FaultPolicyConfig{};
    bad.brownoutDepth = -1.0;
    EXPECT_THROW(validateFaultPolicy(bad), sim::FatalError);

    bad = FaultPolicyConfig{};
    bad.hedge = true;
    bad.policyTickSeconds = 0.0;
    EXPECT_THROW(validateFaultPolicy(bad), sim::FatalError);

    // A NaN or out-of-range tick used to panic in the event queue.
    for (double tick : {std::nan(""), 1e300}) {
        bad = FaultPolicyConfig{};
        bad.brownoutDepth = 4.0;
        bad.policyTickSeconds = tick;
        EXPECT_THROW(validateFaultPolicy(bad), sim::FatalError);
    }
}

// ---------------------------------------------------------- JSONL IO

TEST(FaultScheduleIo, WriteLoadRoundTrips)
{
    std::vector<FaultEvent> events;
    events.push_back({1.25, FaultKind::NodeCrash, 2, 1.0, 30.0});
    events.push_back({2.5, FaultKind::DmaStall, 0, 4.0, 10.0});
    events.push_back({2.5, FaultKind::Straggler, 1, 2.75, 0.0});
    events.push_back({9.0, FaultKind::FlakyNode, 3, 0.35, 5.0});

    TempFile f("roundtrip_faults.jsonl");
    writeFaultSchedule(f.path, events);
    std::vector<FaultEvent> back = loadFaultSchedule(f.path);
    ASSERT_EQ(back.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_DOUBLE_EQ(back[i].atSeconds, events[i].atSeconds);
        EXPECT_EQ(back[i].kind, events[i].kind);
        EXPECT_EQ(back[i].node, events[i].node);
        EXPECT_DOUBLE_EQ(back[i].factor, events[i].factor);
        EXPECT_DOUBLE_EQ(back[i].durationSeconds,
                         events[i].durationSeconds);
    }

    // An empty schedule round-trips too (header only).
    TempFile e("empty_faults.jsonl");
    writeFaultSchedule(e.path, {});
    EXPECT_TRUE(loadFaultSchedule(e.path).empty());
}

TEST(FaultScheduleIo, CorruptionMatrixDiesWithLineNumbers)
{
    const std::string header = "{\"sn40l_faults\":1,\"events\":1}\n";
    const std::string event =
        "{\"at\":1,\"kind\":\"crash\",\"node\":0,\"factor\":1,"
        "\"duration\":0}\n";

    EXPECT_THROW(loadFaultSchedule("/nonexistent/faults.jsonl"),
                 sim::FatalError);
    expectLoadDies("", "empty file");
    expectLoadDies("{\"sn40l_trace\":1}\n" + event, "line 1");
    expectLoadDies("{\"sn40l_faults\":2,\"events\":1}\n" + event,
                   "unsupported fault-schedule version");
    expectLoadDies("{\"sn40l_faults\":1,\"events\":-1}\n",
                   "negative event count");
    // Truncation: the header promises more events than follow.
    expectLoadDies("{\"sn40l_faults\":1,\"events\":2}\n" + event,
                   "truncated after 1 of 2 events");
    // Wrong field order is corruption, not tolerated flexibility.
    expectLoadDies(header +
                       "{\"kind\":\"crash\",\"at\":1,\"node\":0,"
                       "\"factor\":1,\"duration\":0}\n",
                   "line 2");
    expectLoadDies(header + "{\"at\":1,\"kind\":\"meteor\",\"node\":0,"
                            "\"factor\":1,\"duration\":0}\n",
                   "unknown fault kind");
    expectLoadDies(header + "{\"at\":abc,\"kind\":\"crash\","
                            "\"node\":0,\"factor\":1,\"duration\":0}\n",
                   "malformed number");
    expectLoadDies(header +
                       "{\"at\":1,\"kind\":\"crash\",\"node\":0,"
                       "\"factor\":1,\"duration\":0} \n",
                   "trailing characters");
    expectLoadDies(header + event + "garbage\n", "trailing garbage");
    // Out-of-order fire times die on the offending line (3).
    expectLoadDies(
        "{\"sn40l_faults\":1,\"events\":2}\n"
        "{\"at\":5,\"kind\":\"crash\",\"node\":0,\"factor\":1,"
        "\"duration\":0}\n"
        "{\"at\":1,\"kind\":\"crash\",\"node\":1,\"factor\":1,"
        "\"duration\":0}\n",
        "line 3");
    // Semantic range checks fire at load time too.
    expectLoadDies(header + "{\"at\":1,\"kind\":\"straggler\","
                            "\"node\":0,\"factor\":0.5,"
                            "\"duration\":0}\n",
                   "stretch factor");
    expectLoadDies(header + "{\"at\":1,\"kind\":\"flaky\",\"node\":0,"
                            "\"factor\":1.5,\"duration\":0}\n",
                   "failure probability");
}

// ------------------------------------------------- cluster semantics

TEST(FaultCluster, ZeroFaultScheduleIsGoldenIdentical)
{
    // The golden lock: arming an EMPTY schedule with default policy
    // knobs must be bit-identical to a config that never mentions the
    // chaos layer — the no-fault path pays zero cost. Guards every
    // PR 4-7 cluster golden by transitivity.
    ClusterConfig plain = clusterConfig(4);
    plain.placement = PlacementPolicy::ReplicateHotPartitionCold;
    plain.hotExperts = 15;

    ClusterConfig armed = plain;
    armed.faults = schedule({});
    armed.faultPolicy = FaultPolicyConfig{};

    ClusterResult a = ClusterSimulator(plain).run();
    ClusterResult b = ClusterSimulator(armed).run();
    expectStreamBitIdentical(a.stream, b.stream);
    EXPECT_EQ(a.stream.eventsExecuted, b.stream.eventsExecuted);
    EXPECT_EQ(b.faultsInjected, 0);
    EXPECT_EQ(b.crashes, 0);
    EXPECT_EQ(b.stream.lost, 0);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (std::size_t i = 0; i < a.nodes.size(); ++i) {
        EXPECT_EQ(a.nodes[i].dispatched, b.nodes[i].dispatched);
        EXPECT_EQ(a.nodes[i].completed, b.nodes[i].completed);
    }
}

TEST(FaultCluster, CrashLosesWithoutRetryAndConserves)
{
    ClusterConfig cfg = clusterConfig(3);
    cfg.faults = schedule({{2.0, FaultKind::NodeCrash, 1, 1.0, 0.0}});

    ClusterResult r = ClusterSimulator(cfg).run();
    ASSERT_FALSE(r.oom);
    EXPECT_EQ(r.faultsInjected, 1);
    EXPECT_EQ(r.crashes, 1);
    // No retry policy: everything displaced by the crash is lost, and
    // the ledger still balances — nothing disappears silently.
    EXPECT_GT(r.stream.lost, 0);
    EXPECT_EQ(r.stream.retried, 0);
    EXPECT_EQ(r.stream.completed + r.stream.shed + r.stream.lost,
              static_cast<std::int64_t>(cfg.node.streamRequests));
}

TEST(FaultCluster, RetryRecoversCrashDisplacedRequests)
{
    ClusterConfig cfg = clusterConfig(3);
    cfg.faults = schedule({{2.0, FaultKind::NodeCrash, 1, 1.0, 0.0}});
    cfg.faultPolicy.retryMax = 4;
    cfg.faultPolicy.retryBackoffSeconds = 0.02;

    ClusterResult r = ClusterSimulator(cfg).run();
    ASSERT_FALSE(r.oom);
    // A crash displaces to live nodes that are not flaky, so one
    // retry round recovers every displaced request: nothing lost.
    EXPECT_EQ(r.stream.lost, 0);
    EXPECT_GT(r.stream.retried, 0);
    EXPECT_EQ(r.stream.completed + r.stream.shed,
              static_cast<std::int64_t>(cfg.node.streamRequests));
}

TEST(FaultCluster, RetryBudgetCapsClusterWideRetries)
{
    ClusterConfig cfg = clusterConfig(3);
    // A permanently flaky node keeps burning retries; the cluster-wide
    // budget must cap them.
    cfg.faults = schedule({{1.0, FaultKind::FlakyNode, 0, 0.5, 0.0}});
    cfg.faultPolicy.retryMax = 3;
    cfg.faultPolicy.retryBackoffSeconds = 0.01;
    cfg.faultPolicy.retryBudget = 10;

    ClusterResult r = ClusterSimulator(cfg).run();
    ASSERT_FALSE(r.oom);
    EXPECT_LE(r.stream.retried, 10);
    EXPECT_EQ(r.stream.completed + r.stream.shed + r.stream.lost,
              static_cast<std::int64_t>(cfg.node.streamRequests));
}

TEST(FaultCluster, HedgeAccountingConservesUnderStraggler)
{
    ClusterConfig cfg = clusterConfig(3);
    cfg.node.workload.sloSeconds = 0.5; // hedging needs a deadline
    cfg.faults =
        schedule({{1.0, FaultKind::Straggler, 0, 6.0, 10.0}});
    cfg.faultPolicy.hedge = true;
    cfg.faultPolicy.hedgeThreshold = 0.5;
    cfg.faultPolicy.policyTickSeconds = 0.05;

    ClusterResult r = ClusterSimulator(cfg).run();
    ASSERT_FALSE(r.oom);
    EXPECT_GT(r.stream.hedged, 0);
    EXPECT_GE(r.stream.hedged, r.stream.hedgeWon);
    // Hedge duplicates never double-count: conservation still exact.
    EXPECT_EQ(r.stream.completed + r.stream.shed + r.stream.lost,
              static_cast<std::int64_t>(cfg.node.streamRequests));
}

TEST(FaultCluster, FaultedRunBitIdenticalAcrossThreads)
{
    // The determinism claim of the chaos layer: a faulted, policied
    // run is bit-identical between -j 1 and -j N (events counters
    // differ structurally between the two engines and running means
    // differ in the last ulp, so compare counters and quantiles).
    ClusterConfig cfg = clusterConfig(4);
    cfg.dispatch = DispatchPolicy::RoundRobin;
    cfg.node.workload.sloSeconds = 0.6;
    cfg.faults = schedule({
        {2.0, FaultKind::NodeCrash, 2, 1.0, 5.0},
        {4.0, FaultKind::DmaStall, 0, 3.0, 3.0},
        {6.0, FaultKind::FlakyNode, 3, 0.4, 3.0},
    });
    cfg.faultPolicy.retryMax = 3;
    cfg.faultPolicy.retryBackoffSeconds = 0.02;
    cfg.faultPolicy.hedge = true;
    cfg.faultPolicy.hedgeThreshold = 1.0;
    cfg.faultPolicy.brownoutDepth = 6.0;
    cfg.faultPolicy.policyTickSeconds = 0.05;

    ClusterConfig par = cfg;
    par.threads = 2;
    ClusterResult serial = ClusterSimulator(cfg).run();
    ClusterResult sharded = ClusterSimulator(par).run();
    EXPECT_EQ(serial.faultsInjected, sharded.faultsInjected);
    EXPECT_EQ(serial.crashes, sharded.crashes);
    EXPECT_EQ(serial.redispatched, sharded.redispatched);
    EXPECT_EQ(serial.stream.completed, sharded.stream.completed);
    EXPECT_EQ(serial.stream.shed, sharded.stream.shed);
    EXPECT_EQ(serial.stream.lost, sharded.stream.lost);
    EXPECT_EQ(serial.stream.retried, sharded.stream.retried);
    EXPECT_EQ(serial.stream.hedged, sharded.stream.hedged);
    EXPECT_EQ(serial.stream.hedgeWon, sharded.stream.hedgeWon);
    EXPECT_DOUBLE_EQ(serial.stream.p50LatencySeconds,
                     sharded.stream.p50LatencySeconds);
    EXPECT_DOUBLE_EQ(serial.stream.p99LatencySeconds,
                     sharded.stream.p99LatencySeconds);
    EXPECT_DOUBLE_EQ(serial.stream.maxLatencySeconds,
                     sharded.stream.maxLatencySeconds);
    ASSERT_EQ(serial.nodes.size(), sharded.nodes.size());
    for (std::size_t i = 0; i < serial.nodes.size(); ++i) {
        EXPECT_EQ(serial.nodes[i].dispatched,
                  sharded.nodes[i].dispatched);
        EXPECT_EQ(serial.nodes[i].completed,
                  sharded.nodes[i].completed);
    }
}

TEST(FaultCluster, DisplacingFaultsRejectClosedLoopAndSessions)
{
    ClusterConfig cfg = clusterConfig(2);
    cfg.faults = schedule({{1.0, FaultKind::NodeCrash, 0, 1.0, 0.0}});
    cfg.node.arrival = ArrivalProcess::ClosedLoop;
    cfg.node.clients = 4;
    EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);

    cfg = clusterConfig(2);
    cfg.faults = schedule({{1.0, FaultKind::FlakyNode, 0, 0.5, 0.0}});
    cfg.node.workload.sessionFollowProb = 0.4;
    EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);

    // Crash faults need somewhere to put displaced work.
    cfg = clusterConfig(1);
    cfg.faults = schedule({{1.0, FaultKind::NodeCrash, 0, 1.0, 0.0}});
    EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);

    // Non-displacing kinds stay legal on those workloads.
    cfg = clusterConfig(2);
    cfg.faults =
        schedule({{1.0, FaultKind::Straggler, 0, 2.0, 1.0}});
    cfg.node.arrival = ArrivalProcess::ClosedLoop;
    cfg.node.clients = 4;
    ClusterResult r = ClusterSimulator(cfg).run();
    EXPECT_EQ(r.stream.completed + r.stream.shed,
              static_cast<std::int64_t>(cfg.node.streamRequests));
}

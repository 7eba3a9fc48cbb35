/**
 * @file
 * Tests for the workload scenario subsystem (coe/workload.h):
 * trace record/replay round-trips (bit-identical metrics, corrupt
 * files FatalError), multi-tenant mixes, conversational sessions,
 * burst shaping, SLO admission control, and the RateShape arithmetic
 * the legacy drivers now route through.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "coe/serving.h"
#include "coe/workload.h"
#include "sim/log.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

ServingConfig
streamConfig()
{
    ServingConfig cfg;
    cfg.mode = ServingMode::EventDriven;
    cfg.platform = Platform::Sn40l;
    cfg.numExperts = 150;
    cfg.batch = 8;
    cfg.streamRequests = 300;
    cfg.routing = RoutingDistribution::Zipf;
    cfg.arrivalRatePerSec = 24.0;
    cfg.scheduler = SchedulerPolicy::ExpertAffinity;
    cfg.seed = 11;
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
    EXPECT_DOUBLE_EQ(a.meanSwitchStallSeconds, b.meanSwitchStallSeconds);
    EXPECT_DOUBLE_EQ(a.p95SwitchStallSeconds, b.p95SwitchStallSeconds);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.shed, b.shed);
}

} // namespace

// ------------------------------------------------------- rate shape

TEST(RateShape, FlatLeavesBaseUntouched)
{
    RateShape shape;
    EXPECT_TRUE(shape.flat());
    // Not just equal: the flat path must not multiply at all, so the
    // legacy gap arithmetic stays bit-identical.
    EXPECT_DOUBLE_EQ(shape.instantaneous(7.3, 123.456), 7.3);
}

TEST(RateShape, BurstWindowsMultiplyInsideOnly)
{
    RateShape shape;
    shape.burstFactor = 4.0;
    shape.burstEverySeconds = 10.0;
    shape.burstSeconds = 2.0;
    EXPECT_DOUBLE_EQ(shape.instantaneous(8.0, 0.5), 32.0);
    EXPECT_DOUBLE_EQ(shape.instantaneous(8.0, 1.999), 32.0);
    EXPECT_DOUBLE_EQ(shape.instantaneous(8.0, 2.5), 8.0);
    EXPECT_DOUBLE_EQ(shape.instantaneous(8.0, 10.5), 32.0); // repeats
}

TEST(RateShape, DiurnalMatchesLegacyExpression)
{
    RateShape shape;
    shape.diurnalAmplitude = 0.9;
    shape.diurnalPeriodSeconds = 10.0;
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    double t = 3.7, base = 16.0;
    double want = base * (1.0 + 0.9 * std::sin(kTwoPi * t / 10.0));
    EXPECT_DOUBLE_EQ(shape.instantaneous(base, t), want);
}

// ------------------------------------------------- trace round trip

TEST(TraceRoundTrip, ServeRecordReplayIsBitIdentical)
{
    TempFile trace("serve_roundtrip.jsonl");
    ServingConfig rec = streamConfig();
    rec.workload.traceOut = trace.path;
    ServingResult recorded = ServingSimulator(rec).run();

    ServingConfig rep = streamConfig();
    rep.workload.traceIn = trace.path;
    ServingResult replayed = ServingSimulator(rep).run();

    expectStreamBitIdentical(recorded.stream, replayed.stream);
    EXPECT_DOUBLE_EQ(recorded.missRate, replayed.missRate);
}

TEST(TraceRoundTrip, SessionWorkloadRecordReplayIsBitIdentical)
{
    // Sessions are the hard case: follow-up arrivals are coupled to
    // completions in the recording run, and the trace must capture
    // the resulting stream exactly.
    TempFile trace("sessions_roundtrip.jsonl");
    ServingConfig rec = streamConfig();
    rec.workload.tenants = 4;
    rec.workload.sessionFollowProb = 0.5;
    rec.workload.sessionThinkSeconds = 0.2;
    rec.workload.sloSeconds = 3.0;
    rec.workload.traceOut = trace.path;
    ServingResult recorded = ServingSimulator(rec).run();

    ServingConfig rep = streamConfig();
    rep.workload.traceIn = trace.path;
    ServingResult replayed = ServingSimulator(rep).run();

    expectStreamBitIdentical(recorded.stream, replayed.stream);
    EXPECT_DOUBLE_EQ(recorded.missRate, replayed.missRate);
}

TEST(TraceRoundTrip, ClusterRecordReplayIsBitIdentical)
{
    TempFile trace("cluster_roundtrip.jsonl");
    ClusterConfig rec;
    rec.nodes = 3;
    rec.placement = PlacementPolicy::ReplicateHotPartitionCold;
    rec.dispatch = DispatchPolicy::LeastOutstanding;
    rec.node = streamConfig();
    rec.node.arrivalRatePerSec = 48.0;
    rec.node.workload.traceOut = trace.path;
    ClusterResult recorded = ClusterSimulator(rec).run();

    ClusterConfig rep = rec;
    rep.node.workload.traceOut.clear();
    rep.node.workload.traceIn = trace.path;
    ClusterResult replayed = ClusterSimulator(rep).run();

    expectStreamBitIdentical(recorded.stream, replayed.stream);
    EXPECT_DOUBLE_EQ(recorded.missRate, replayed.missRate);
    ASSERT_EQ(recorded.nodes.size(), replayed.nodes.size());
    for (std::size_t n = 0; n < recorded.nodes.size(); ++n) {
        EXPECT_EQ(recorded.nodes[n].completed,
                  replayed.nodes[n].completed);
        EXPECT_EQ(recorded.nodes[n].dispatched,
                  replayed.nodes[n].dispatched);
        EXPECT_EQ(recorded.nodes[n].misses, replayed.nodes[n].misses);
    }
}

TEST(TraceRoundTrip, ReplaySameTrafficAcrossConfigs)
{
    // The point of replay: two different serving configs fed the SAME
    // recorded traffic. Arrival streams must agree (completed counts
    // equal), behaviour may differ (miss rates move with the policy).
    TempFile trace("cross_config.jsonl");
    ServingConfig rec = streamConfig();
    rec.workload.traceOut = trace.path;
    ServingSimulator(rec).run();

    ServingConfig fifo = streamConfig();
    fifo.scheduler = SchedulerPolicy::Fifo;
    fifo.workload.traceIn = trace.path;
    ServingConfig affinity = streamConfig();
    affinity.workload.traceIn = trace.path;

    ServingResult f = ServingSimulator(fifo).run();
    ServingResult a = ServingSimulator(affinity).run();
    EXPECT_EQ(f.stream.completed, a.stream.completed);
    EXPECT_LE(a.missRate, f.missRate); // affinity groups same-expert work
}

TEST(TraceRoundTrip, ReplayUnderDifferentSloOverridesDeadlines)
{
    // One trace, three SLO settings: workload.sloSeconds overrides
    // the recorded per-request deadlines at replay, so admission
    // tightens monotonically while the traffic stays identical.
    TempFile trace("slo_sweep.jsonl");
    ServingConfig rec = streamConfig();
    rec.arrivalRatePerSec = 120.0; // overloaded: admission matters
    rec.workload.traceOut = trace.path;
    ServingSimulator(rec).run();

    auto shedWith = [&](double slo) {
        ServingConfig rep = streamConfig();
        rep.workload.traceIn = trace.path;
        rep.workload.sloSeconds = slo;
        return ServingSimulator(rep).run().stream.shed;
    };
    std::int64_t none = shedWith(0.0);   // recorded deadlines (none)
    std::int64_t loose = shedWith(10.0);
    std::int64_t tight = shedWith(0.5);
    EXPECT_EQ(none, 0);
    EXPECT_GT(tight, loose);
}

// ---------------------------------------------------- trace parsing

TEST(TraceFormat, RoundTripsEveryField)
{
    TempFile trace("fields.jsonl");
    std::vector<TraceEntry> entries;
    for (int i = 0; i < 3; ++i) {
        TraceEntry e;
        e.request.id = i;
        e.tick = 1000000LL * (i + 1) + i;
        e.request.tenant = i % 2;
        e.request.expert = 17 + i;
        e.request.session = i == 1 ? 4 : -1;
        e.request.turn = i == 1 ? 3 : 0;
        e.request.promptLen = 512 * i;
        e.request.outputTokens = 20 + i;
        e.request.priority = i;
        e.request.deadlineSeconds = i == 2 ? 1.2345678901234567 : 0.0;
        entries.push_back(e);
    }
    writeTrace(trace.path, entries);
    std::vector<TraceEntry> back = loadTrace(trace.path);
    ASSERT_EQ(back.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(back[i].tick, entries[i].tick);
        EXPECT_EQ(back[i].request.tenant, entries[i].request.tenant);
        EXPECT_EQ(back[i].request.expert, entries[i].request.expert);
        EXPECT_EQ(back[i].request.session, entries[i].request.session);
        EXPECT_EQ(back[i].request.turn, entries[i].request.turn);
        EXPECT_EQ(back[i].request.promptLen,
                  entries[i].request.promptLen);
        EXPECT_EQ(back[i].request.outputTokens,
                  entries[i].request.outputTokens);
        EXPECT_EQ(back[i].request.priority, entries[i].request.priority);
        // Deadlines survive the text round-trip bit-exactly (printed
        // at 17 significant digits).
        EXPECT_DOUBLE_EQ(back[i].request.deadlineSeconds,
                         entries[i].request.deadlineSeconds);
    }
}

TEST(TraceFormat, CorruptAndTruncatedTracesAreFatal)
{
    auto write = [](const std::string &path, const std::string &body) {
        std::ofstream out(path);
        out << body;
    };
    auto line = [](int id, long long tick) {
        return "{\"id\":" + std::to_string(id) + ",\"tick\":" +
            std::to_string(tick) +
            ",\"tenant\":0,\"expert\":1,\"session\":-1,\"turn\":0,"
            "\"prompt\":0,\"tokens\":0,\"prio\":0,\"deadline\":0}\n";
    };

    TempFile t("corrupt.jsonl");
    // Missing file.
    EXPECT_THROW(loadTrace(t.path + ".nope"), sim::FatalError);
    // Empty file.
    write(t.path, "");
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Garbage header.
    write(t.path, "not json\n");
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Unsupported version.
    write(t.path, "{\"sn40l_trace\":9,\"requests\":1}\n" + line(0, 5));
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Zero requests.
    write(t.path, "{\"sn40l_trace\":1,\"requests\":0}\n");
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Truncated: header promises 3, file has 1.
    write(t.path, "{\"sn40l_trace\":1,\"requests\":3}\n" + line(0, 5));
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Malformed field value.
    write(t.path,
          "{\"sn40l_trace\":1,\"requests\":1}\n"
          "{\"id\":zero,\"tick\":5,\"tenant\":0,\"expert\":1,"
          "\"session\":-1,\"turn\":0,\"prompt\":0,\"tokens\":0,"
          "\"prio\":0,\"deadline\":0}\n");
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Wrong key order (schema drift is corruption, not tolerance).
    write(t.path,
          "{\"sn40l_trace\":1,\"requests\":1}\n"
          "{\"tick\":5,\"id\":0,\"tenant\":0,\"expert\":1,"
          "\"session\":-1,\"turn\":0,\"prompt\":0,\"tokens\":0,"
          "\"prio\":0,\"deadline\":0}\n");
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Non-sequential ids.
    write(t.path, "{\"sn40l_trace\":1,\"requests\":2}\n" + line(0, 5) +
                      line(2, 9));
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Ticks going backwards.
    write(t.path, "{\"sn40l_trace\":1,\"requests\":2}\n" + line(0, 9) +
                      line(1, 5));
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Trailing garbage after the promised requests.
    write(t.path, "{\"sn40l_trace\":1,\"requests\":1}\n" + line(0, 5) +
                      "extra\n");
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Garbage hiding behind a blank line is still garbage
    // (regression: the check must scan all remaining lines, not just
    // the first).
    write(t.path, "{\"sn40l_trace\":1,\"requests\":1}\n" + line(0, 5) +
                      "\n\ngarbage\n");
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Pure trailing newlines are tolerated (editors add them).
    write(t.path, "{\"sn40l_trace\":1,\"requests\":1}\n" + line(0, 5) +
                      "\n");
    EXPECT_EQ(loadTrace(t.path).size(), 1u);
    // A valid minimal trace still parses after all that.
    write(t.path, "{\"sn40l_trace\":1,\"requests\":1}\n" + line(0, 5));
    EXPECT_EQ(loadTrace(t.path).size(), 1u);
}

// ------------------------------------------------------ scenarios

TEST(MultiTenantWorkload, DeterministicAndConservesRequests)
{
    ServingConfig cfg = streamConfig();
    cfg.workload.tenants = 4;
    ServingResult a = ServingSimulator(cfg).run();
    ServingResult b = ServingSimulator(cfg).run();
    EXPECT_EQ(a.stream.completed, cfg.streamRequests);
    EXPECT_DOUBLE_EQ(a.stream.p99LatencySeconds,
                     b.stream.p99LatencySeconds);
    EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
}

TEST(MultiTenantWorkload, DerivedMixShapesAreSane)
{
    ServingConfig cfg = streamConfig();
    cfg.workload.tenants = 5;
    cfg.workload.sloSeconds = 2.0;
    std::vector<TenantSpec> mix = buildTenantMix(cfg);
    ASSERT_EQ(mix.size(), 5u);
    std::vector<int> offsets;
    for (const TenantSpec &t : mix) {
        EXPECT_GT(t.rateShare, 0.0);
        EXPECT_GE(t.expertOffset, 0);
        EXPECT_LT(t.expertOffset, cfg.numExperts);
        EXPECT_LE(t.minOutputTokens, t.maxOutputTokens);
        EXPECT_DOUBLE_EQ(t.sloSeconds, 2.0);
        offsets.push_back(t.expertOffset);
    }
    // Whales first: shares decay with index.
    EXPECT_GT(mix[0].rateShare, mix[4].rateShare);
    // Hot sets rotate: offsets are distinct.
    std::sort(offsets.begin(), offsets.end());
    EXPECT_EQ(std::unique(offsets.begin(), offsets.end()),
              offsets.end());
}

TEST(SessionWorkload, FollowUpTurnsReuseTheSessionExpert)
{
    ServingConfig cfg = streamConfig();
    cfg.streamRequests = 200;
    cfg.workload.tenants = 2;
    cfg.workload.sessionFollowProb = 0.7;
    cfg.workload.sessionThinkSeconds = 0.1;

    // Run through the model directly to inspect the emitted stream.
    sim::EventQueue eq;
    auto model = makeWorkloadModel(cfg);
    std::map<int, int> sessionExpert; // session -> expert of turn 0
    std::int64_t followUps = 0;
    model->bind(eq, [&](const TrafficRequest &r) {
        if (r.session >= 0) {
            auto it = sessionExpert.find(r.session);
            if (it == sessionExpert.end()) {
                EXPECT_EQ(r.turn, 0);
                sessionExpert[r.session] = r.expert;
            } else {
                ++followUps;
                EXPECT_EQ(r.expert, it->second)
                    << "turn " << r.turn << " switched expert";
                EXPECT_GT(r.turn, 0);
            }
        }
        // Completion immediately (no engine): sessions advance.
        model->onRequestComplete(r);
    });
    model->start();
    eq.run();
    EXPECT_EQ(model->emitted(), cfg.streamRequests);
    EXPECT_GT(followUps, 0);
}

TEST(SloAdmission, OverloadShedsAndConservesArrivals)
{
    ServingConfig cfg = streamConfig();
    cfg.streamRequests = 300;
    cfg.arrivalRatePerSec = 200.0; // far past saturation
    cfg.workload.sloSeconds = 1.0;
    ServingSimulator sim(cfg);
    ServingResult r = sim.run();
    EXPECT_GT(r.stream.shed, 0);
    EXPECT_EQ(r.stream.completed + r.stream.shed,
              static_cast<std::int64_t>(cfg.streamRequests));
    EXPECT_NEAR(r.stream.shedRate,
                static_cast<double>(r.stream.shed) / cfg.streamRequests,
                1e-12);
    // Admission control bounds the queue the SLO cares about: the
    // same overload without shedding has a far worse p99.
    ServingConfig open = cfg;
    open.workload.sloSeconds = 0.0;
    ServingResult ro = ServingSimulator(open).run();
    EXPECT_EQ(ro.stream.shed, 0);
    EXPECT_GT(ro.stream.p99LatencySeconds, r.stream.p99LatencySeconds);
}

TEST(SloAdmission, PriorityTiersShedLowFirst)
{
    ServingConfig cfg = streamConfig();
    cfg.streamRequests = 300;
    cfg.arrivalRatePerSec = 120.0;
    TenantSpec low, high;
    low.name = "free";
    low.priority = 0;
    low.sloSeconds = 1.0;
    high.name = "paid";
    high.priority = 2;
    high.sloSeconds = 1.0;
    cfg.workload.tenantSpecs = {low, high};

    ServingSimulator sim(cfg);
    ServingResult r = sim.run();
    EXPECT_GT(r.stream.shed, 0);
    EXPECT_EQ(r.stream.completed + r.stream.shed,
              static_cast<std::int64_t>(cfg.streamRequests));
    // Priority widens the tolerated estimate by (1 + p): the paid
    // tier must shed strictly less than the free tier even though
    // both share the same deadline and arrival rate.
    EXPECT_LT(sim.stats().get("shed_tenant_1"),
              sim.stats().get("shed_tenant_0"));
}

TEST(SloAdmission, ClosedLoopShedReturnsClientToThePool)
{
    // Regression: a shed request never reaches onBatchComplete, so
    // without an explicit shed hook the client pool would shrink by
    // one per shed and the run could stall with budget unspent
    // (panic: "workload did not emit its full budget"). An absurdly
    // tight deadline sheds every arrival — the run must still drain
    // its full budget through think-and-retry.
    ServingConfig cfg = streamConfig();
    cfg.arrival = ArrivalProcess::ClosedLoop;
    cfg.clients = 8;
    cfg.streamRequests = 100;
    cfg.thinkSeconds = 0.01;
    cfg.workload.sloSeconds = 1e-6;
    ServingResult r = ServingSimulator(cfg).run();
    EXPECT_EQ(r.stream.completed + r.stream.shed,
              static_cast<std::int64_t>(cfg.streamRequests));
    EXPECT_EQ(r.stream.shed,
              static_cast<std::int64_t>(cfg.streamRequests));

    // A feasible deadline mid-overload sheds some, completes the rest.
    cfg.workload.sloSeconds = 0.6;
    cfg.thinkSeconds = 0.0;
    ServingResult mixed = ServingSimulator(cfg).run();
    EXPECT_EQ(mixed.stream.completed + mixed.stream.shed,
              static_cast<std::int64_t>(cfg.streamRequests));
    EXPECT_GT(mixed.stream.completed, 0);
}

TEST(BurstWorkload, FlashCrowdsDegradeTheTail)
{
    ServingConfig flat = streamConfig();
    flat.streamRequests = 400;
    ServingConfig bursty = flat;
    bursty.workload.shape.burstFactor = 4.0;
    bursty.workload.shape.burstEverySeconds = 5.0;
    bursty.workload.shape.burstSeconds = 1.0;

    ServingResult f = ServingSimulator(flat).run();
    ServingResult b = ServingSimulator(bursty).run();
    EXPECT_EQ(b.stream.completed, bursty.streamRequests);
    EXPECT_GT(b.stream.p99LatencySeconds, f.stream.p99LatencySeconds);
}

TEST(WorkloadValidation, RejectsContradictoryConfigs)
{
    {
        ServingConfig cfg = streamConfig();
        cfg.workload.tenants = 0;
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
    }
    {
        ServingConfig cfg = streamConfig();
        cfg.workload.sloSeconds = -1.0;
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
    }
    {
        ServingConfig cfg = streamConfig();
        cfg.workload.sessionFollowProb = 1.5;
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
    }
    // Non-finite numbers fail in the config layer, naming the field
    // and its flag, instead of reaching the event queue.
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    auto expectFatalNaming = [](const ServingConfig &cfg,
                                const std::string &field) {
        try {
            ServingSimulator sim(cfg);
            ADD_FAILURE() << "accepted a bad " << field;
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    };
    for (double v : {nan, inf}) {
        ServingConfig cfg = streamConfig();
        cfg.workload.sloSeconds = v;
        expectFatalNaming(cfg, "sloSeconds (--slo-ms)");
        cfg = streamConfig();
        cfg.workload.sessionFollowProb = 0.5;
        cfg.workload.sessionThinkSeconds = v;
        expectFatalNaming(cfg, "sessionThinkSeconds (--session-think)");
        cfg = streamConfig();
        cfg.workload.sessionFollowProb = v;
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
        cfg = streamConfig();
        cfg.workload.shape.burstFactor = v;
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
    }
    {
        ServingConfig cfg = streamConfig();
        cfg.outputTokens = -1;
        expectFatalNaming(cfg, "outputTokens (--tokens)");
    }
    {
        ServingConfig cfg = streamConfig();
        cfg.workload.shape.burstFactor = 0.5;
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
    }
    {
        ServingConfig cfg = streamConfig();
        cfg.workload.shape.burstFactor = 2.0; // but no window
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
    }
    {
        ServingConfig cfg = streamConfig();
        cfg.arrival = ArrivalProcess::ClosedLoop;
        cfg.clients = 4;
        cfg.workload.tenants = 3; // mixes are open-loop
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
    }
    {
        ServingConfig cfg = streamConfig();
        TenantSpec t;
        t.rateShare = 0.0;
        cfg.workload.tenantSpecs = {t};
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
    }
}

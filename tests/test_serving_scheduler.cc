/**
 * @file
 * Tests for the event-driven CoE request-stream scheduler: scheduler
 * policies against the live LRU cache, latency-tail and saturation
 * behaviour, the closed-loop arrival process, the Distribution sample
 * recorder, bit-exactness of the legacy analytic mode against
 * values captured from the pre-refactor simulator, and the engine's
 * admission queue (older ids re-entering, mid-queue cancels,
 * extraction order with tombstones, no O(queue) take).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "coe/cluster.h"
#include "coe/serving_engine.h"
#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/stats.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

ServingConfig
streamConfig()
{
    ServingConfig cfg;
    cfg.platform = Platform::Sn40l;
    cfg.numExperts = 150;
    cfg.batch = 8;
    cfg.streamRequests = 400;
    cfg.routing = RoutingDistribution::Zipf;
    cfg.arrivalRatePerSec = 60.0; // well past saturation: queue builds
    cfg.seed = 11;
    return cfg;
}

} // namespace

TEST(Distribution, QuantilesAndMoments)
{
    sim::Distribution d("lat");
    EXPECT_EQ(d.quantile(0.5), 0.0);
    for (int i = 1; i <= 100; ++i)
        d.record(static_cast<double>(i));
    EXPECT_EQ(d.count(), 100u);
    EXPECT_DOUBLE_EQ(d.mean(), 50.5);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 100.0);
    EXPECT_NEAR(d.quantile(0.5), 50.5, 1e-12);
    EXPECT_NEAR(d.quantile(0.99), 99.01, 1e-9);
    // Recording after a quantile query invalidates the sorted cache.
    d.record(1000.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 1000.0);
    d.clear();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.sum(), 0.0);
}

TEST(SchedulerPolicy, NamesRoundTrip)
{
    EXPECT_EQ(schedulerPolicyFromName("fifo"), SchedulerPolicy::Fifo);
    EXPECT_EQ(schedulerPolicyFromName("affinity"),
              SchedulerPolicy::ExpertAffinity);
    EXPECT_EQ(schedulerPolicyFromName("expert-affinity"),
              SchedulerPolicy::ExpertAffinity);
    EXPECT_THROW(schedulerPolicyFromName("lifo"), sim::FatalError);
    EXPECT_STREQ(schedulerPolicyName(SchedulerPolicy::Fifo), "fifo");
    EXPECT_STREQ(schedulerPolicyName(SchedulerPolicy::ExpertAffinity),
                 "affinity");
}

TEST(StreamScheduler, DeterministicPerSeed)
{
    ServingConfig cfg = streamConfig();
    ServingResult a = ServingSimulator(cfg).run();
    ServingResult b = ServingSimulator(cfg).run();
    EXPECT_DOUBLE_EQ(a.stream.p99LatencySeconds, b.stream.p99LatencySeconds);
    EXPECT_DOUBLE_EQ(a.stream.throughputRequestsPerSec,
                     b.stream.throughputRequestsPerSec);
    EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
}

TEST(StreamScheduler, AffinityBeatsFifoMissesOnSkewedRouting)
{
    ServingConfig cfg = streamConfig();

    cfg.scheduler = SchedulerPolicy::Fifo;
    ServingSimulator fifo(cfg);
    ServingResult fifo_r = fifo.run();

    cfg.scheduler = SchedulerPolicy::ExpertAffinity;
    ServingSimulator affinity(cfg);
    ServingResult affinity_r = affinity.run();

    EXPECT_LT(affinity.stats().get("misses"), fifo.stats().get("misses"));
    EXPECT_LT(affinity_r.missRate, fifo_r.missRate);
    // Every request completes under both policies.
    EXPECT_EQ(fifo_r.stream.completed, cfg.streamRequests);
    EXPECT_EQ(affinity_r.stream.completed, cfg.streamRequests);
}

TEST(StreamScheduler, TailDominatesMedian)
{
    for (SchedulerPolicy policy :
         {SchedulerPolicy::Fifo, SchedulerPolicy::ExpertAffinity}) {
        ServingConfig cfg = streamConfig();
        cfg.scheduler = policy;
        ServingSimulator sim(cfg);
        ServingResult r = sim.run();
        EXPECT_GE(r.stream.p99LatencySeconds, r.stream.p95LatencySeconds);
        EXPECT_GE(r.stream.p95LatencySeconds, r.stream.p50LatencySeconds);
        EXPECT_GE(r.stream.maxLatencySeconds, r.stream.p99LatencySeconds);
        EXPECT_EQ(sim.latencySamples().count(),
                  static_cast<std::size_t>(cfg.streamRequests));
    }
}

TEST(StreamScheduler, ThroughputSaturatesPastServiceRate)
{
    auto throughput = [](double rate) {
        ServingConfig cfg = streamConfig();
        cfg.routing = RoutingDistribution::Uniform;
        cfg.arrivalRatePerSec = rate;
        return ServingSimulator(cfg).run().stream.throughputRequestsPerSec;
    };

    double low = throughput(2.0);
    double mid = throughput(64.0);
    double high = throughput(256.0);

    // Under light load throughput tracks the arrival rate...
    EXPECT_NEAR(low, 2.0, 0.5);
    // ...past saturation it clamps at the service rate: quadrupling
    // the offered load moves sustained throughput by under 5%.
    EXPECT_GT(mid, 4.0);
    EXPECT_NEAR(high / mid, 1.0, 0.05);

    // Queueing delay explodes across the saturation knee.
    ServingConfig cfg = streamConfig();
    cfg.routing = RoutingDistribution::Uniform;
    cfg.arrivalRatePerSec = 2.0;
    double p99_low = ServingSimulator(cfg).run().stream.p99LatencySeconds;
    cfg.arrivalRatePerSec = 256.0;
    double p99_high = ServingSimulator(cfg).run().stream.p99LatencySeconds;
    EXPECT_GT(p99_high, 5.0 * p99_low);
}

TEST(StreamScheduler, ClosedLoopKeepsClientsInFlight)
{
    ServingConfig cfg = streamConfig();
    cfg.arrival = ArrivalProcess::ClosedLoop;
    cfg.clients = 8;
    cfg.streamRequests = 96;
    cfg.thinkSeconds = 0.05;

    ServingResult r = ServingSimulator(cfg).run();
    EXPECT_EQ(r.stream.completed, cfg.streamRequests);
    // In-flight work can never exceed the client pool.
    EXPECT_LE(r.stream.maxQueueDepth, static_cast<double>(cfg.clients));
    EXPECT_GT(r.stream.throughputRequestsPerSec, 0.0);
}

TEST(StreamScheduler, AffinityStarvationGuardServesColdExperts)
{
    // Round-robin over many experts with a tiny aging limit: every
    // expert, however cold, must still get served and the run drains.
    ServingConfig cfg = streamConfig();
    cfg.routing = RoutingDistribution::RoundRobin;
    cfg.scheduler = SchedulerPolicy::ExpertAffinity;
    cfg.affinityMaxSkips = 2;
    cfg.streamRequests = 200;
    ServingResult r = ServingSimulator(cfg).run();
    EXPECT_EQ(r.stream.completed, cfg.streamRequests);
}

TEST(StreamScheduler, StreamMetricsAreConsistent)
{
    ServingConfig cfg = streamConfig();
    ServingSimulator sim(cfg);
    ServingResult r = sim.run();

    EXPECT_EQ(r.stream.completed, cfg.streamRequests);
    EXPECT_GT(r.stream.batches, 0);
    EXPECT_LE(r.stream.meanBatchOccupancy,
              static_cast<double>(cfg.batch));
    EXPECT_NEAR(r.stream.throughputTokensPerSec,
                r.stream.throughputRequestsPerSec * cfg.outputTokens,
                1e-9);
}

/**
 * The closed-form batch model must reproduce the pre-refactor
 * ServingResult bit for bit. The expected values below were captured
 * from the seed simulator (before the event-driven refactor) at full
 * precision.
 */
TEST(AnalyticBatches, BitIdenticalToPreRefactorResults)
{
    struct Golden
    {
        Platform platform;
        int experts, batch;
        RoutingDistribution routing;
        bool prefetch;
        double router, switches, exec, miss;
        int resident;
        double perPrompt;
    };
    const Golden goldens[] = {
        {Platform::Sn40l, 150, 8, RoutingDistribution::Uniform, false,
         0.071381331986999946, 0.080990572306249856, 0.30353325061599906,
         0.78125, 38, 0.037941656327000001},
        {Platform::Sn40l, 150, 1, RoutingDistribution::Zipf, true,
         0.0098736814430000052, 0.0017834058540937493,
         0.037941656327000001, 0.578125, 38, 0.037941656327000001},
        {Platform::DgxA100, 150, 8, RoutingDistribution::Uniform, false,
         0.21529729404278214, 2.5005839200000244, 0.90381248913024981,
         0.7421875, 45, 0.11297656114128235},
        {Platform::DgxH100, 64, 4, RoutingDistribution::RoundRobin, false,
         0.041411531070960489, 0.84230195200000557, 0.29321610899865513,
         1.0, 45, 0.073304027249663811},
    };

    for (const Golden &g : goldens) {
        ServingConfig cfg;
        cfg.platform = g.platform;
        cfg.numExperts = g.experts;
        cfg.batch = g.batch;
        cfg.routing = g.routing;
        cfg.predictivePrefetch = g.prefetch;
        cfg.seed = 1;

        ServingResult r = analyticBatches(cfg, 64);
        EXPECT_FALSE(r.oom);
        EXPECT_DOUBLE_EQ(r.perBatch.routerSeconds, g.router);
        EXPECT_DOUBLE_EQ(r.perBatch.switchSeconds, g.switches);
        EXPECT_DOUBLE_EQ(r.perBatch.execSeconds, g.exec);
        EXPECT_DOUBLE_EQ(r.missRate, g.miss);
        EXPECT_EQ(r.residentCapacityExperts, g.resident);
        EXPECT_DOUBLE_EQ(r.expertSecondsPerPrompt, g.perPrompt);
    }
}

TEST(AnalyticBatches, AdapterMissCostsAnAdapterCopy)
{
    // A PEFT zoo miss moves one LoRA adapter, not a full expert: the
    // closed form charges each miss the platform's idle copy of the
    // bytes it moves, as MemorySystem::estimateLoad would.
    ServingConfig cfg;
    cfg.zoo.enabled = true;
    cfg.numExperts = 2000;
    cfg.routing = RoutingDistribution::Zipf;
    cfg.zipfS = 1.0;
    cfg.expertRegionBytes = static_cast<std::int64_t>(15.6e9);
    ServingResult r = analyticBatches(cfg, 200);
    ASSERT_FALSE(r.oom);
    ASSERT_GT(r.missRate, 0.0);

    double adapter = loraAdapterBytes(cfg.expertBase, cfg.zoo.rank);
    double copy =
        sim::toSeconds(platformMemoryConfig(cfg).copyTicks(adapter));
    double misses_per_batch = r.missRate * cfg.batch;
    EXPECT_NEAR(r.perBatch.switchSeconds, misses_per_batch * copy,
                copy * 1e-6);
    // Two orders of magnitude below a full-expert switch per miss.
    EXPECT_LT(r.perBatch.switchSeconds,
              0.01 * misses_per_batch * computePhaseCosts(cfg).switchSeconds);
}

/**
 * The event-driven scheduler must also stay bit-identical across
 * engine work. These values were captured at full precision from the
 * engine as of PR 2 (shared_ptr-heap EventQueue, pre-drawn arrival
 * schedule, O(queue) batch formation); the pooled EventQueue,
 * closed-form channel booking, chained arrivals, indexed affinity
 * formation, and cost-model memoization all reproduce them exactly.
 * Run sizes sit below Distribution's reservoir threshold so quantiles
 * take the exact path.
 */
TEST(StreamScheduler, EventDrivenBitIdenticalToPr2Engine)
{
    ServingConfig base;
    base.batch = 8;
    base.streamRequests = 384;
    base.arrivalRatePerSec = 16.0;
    base.routing = RoutingDistribution::Zipf;
    base.zipfS = 1.2;
    base.seed = 7;

    {
        ServingConfig cfg = base;
        cfg.scheduler = SchedulerPolicy::Fifo;
        ServingResult r = ServingSimulator(cfg).run();
        const StreamMetrics &m = r.stream;
        EXPECT_DOUBLE_EQ(m.p50LatencySeconds, 0.35731539149050001);
        EXPECT_DOUBLE_EQ(m.p95LatencySeconds, 0.64836733127539981);
        EXPECT_DOUBLE_EQ(m.p99LatencySeconds, 0.74342659457905025);
        EXPECT_DOUBLE_EQ(m.meanLatencySeconds, 0.37360555277126578);
        EXPECT_DOUBLE_EQ(m.maxLatencySeconds, 0.82763664012899996);
        EXPECT_DOUBLE_EQ(m.throughputRequestsPerSec, 16.516006801146176);
        EXPECT_DOUBLE_EQ(m.meanQueueDepth, 2.0606680190790523);
        EXPECT_DOUBLE_EQ(m.meanBatchOccupancy, 3.3684210526315788);
        EXPECT_DOUBLE_EQ(m.makespanSeconds, 23.250172067824);
        EXPECT_DOUBLE_EQ(r.missRate, 0.27083333333333331);
        EXPECT_EQ(m.batches, 114);
    }
    {
        ServingConfig cfg = base;
        cfg.scheduler = SchedulerPolicy::ExpertAffinity;
        ServingResult r = ServingSimulator(cfg).run();
        const StreamMetrics &m = r.stream;
        EXPECT_DOUBLE_EQ(m.p50LatencySeconds, 0.35731539149050001);
        EXPECT_DOUBLE_EQ(m.p99LatencySeconds, 0.75591874410116133);
        EXPECT_DOUBLE_EQ(m.maxLatencySeconds, 0.992359273323);
        EXPECT_DOUBLE_EQ(m.throughputRequestsPerSec, 16.516006801146176);
        EXPECT_DOUBLE_EQ(r.missRate, 0.27083333333333331);
        EXPECT_EQ(m.batches, 114);
    }
    {
        ServingConfig cfg = base;
        cfg.scheduler = SchedulerPolicy::ExpertAffinity;
        cfg.predictivePrefetch = true;
        cfg.prefetchDepth = 4;
        ServingResult r = ServingSimulator(cfg).run();
        EXPECT_DOUBLE_EQ(r.stream.p99LatencySeconds,
                         0.75591874410116133);
        EXPECT_DOUBLE_EQ(r.missRate, 0.19270833333333334);
        EXPECT_EQ(r.stream.batches, 114);
    }
    {
        ServingConfig cfg;
        cfg.batch = 4;
        cfg.streamRequests = 256;
        cfg.arrival = ArrivalProcess::ClosedLoop;
        cfg.clients = 24;
        cfg.thinkSeconds = 0.25;
        cfg.routing = RoutingDistribution::Uniform;
        cfg.seed = 11;
        cfg.scheduler = SchedulerPolicy::ExpertAffinity;
        ServingResult r = ServingSimulator(cfg).run();
        const StreamMetrics &m = r.stream;
        EXPECT_DOUBLE_EQ(m.p50LatencySeconds, 1.0710945877325);
        EXPECT_DOUBLE_EQ(m.p95LatencySeconds, 1.2831636038100001);
        EXPECT_DOUBLE_EQ(m.p99LatencySeconds, 1.4539057563269999);
        EXPECT_DOUBLE_EQ(m.meanLatencySeconds, 0.87119944718866449);
        EXPECT_DOUBLE_EQ(m.throughputRequestsPerSec, 20.957721919665659);
        EXPECT_DOUBLE_EQ(m.meanQueueDepth, 14.288624085649671);
        EXPECT_DOUBLE_EQ(m.meanSwitchStallSeconds,
                         0.0040944381822615381);
        EXPECT_DOUBLE_EQ(m.p95SwitchStallSeconds, 0.017442405190399999);
        EXPECT_DOUBLE_EQ(r.missRate, 0.65625);
        EXPECT_EQ(m.batches, 65);
    }
}

TEST(StreamScheduler, RejectsBadStreamConfigs)
{
    ServingConfig cfg = streamConfig();
    cfg.streamRequests = 0;
    EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);

    cfg = streamConfig();
    cfg.arrivalRatePerSec = 0.0;
    EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);

    cfg = streamConfig();
    cfg.arrival = ArrivalProcess::ClosedLoop;
    cfg.clients = 0;
    EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);

    cfg = streamConfig();
    cfg.arrival = ArrivalProcess::ClosedLoop;
    cfg.thinkSeconds = -0.5;
    EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);

    // Non-finite values fail validation instead of reaching the event
    // queue as wrapped ticks.
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {std::nan(""), inf, -inf}) {
        cfg = streamConfig();
        cfg.arrivalRatePerSec = bad;
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError) << bad;

        cfg = streamConfig();
        cfg.arrival = ArrivalProcess::ClosedLoop;
        cfg.thinkSeconds = bad;
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError) << bad;
    }
}

/**
 * Event identity of a single-node serve run: every event is a request
 * arrival, a batch's router decision, a batch's execution (all its
 * prompts, as one coe.batch_done) or a DMA load's completion. With
 * prefetch on, a DMA issued while a batch executes can delay its HBM
 * traffic, so coe.batch_done may fire early and re-arm once: at most
 * one extra event per load.
 */
TEST(StreamScheduler, OneEventPerArrivalRouterBatchAndLoad)
{
    for (bool prefetch : {false, true}) {
        ServingConfig cfg = streamConfig();
        cfg.scheduler = SchedulerPolicy::ExpertAffinity;
        cfg.predictivePrefetch = prefetch;
        ServingSimulator sim(cfg);
        ServingResult r = sim.run();
        const StreamMetrics &m = r.stream;
        ASSERT_EQ(m.completed, cfg.streamRequests);
        auto loads =
            static_cast<std::int64_t>(sim.stats().get("dma_loads_issued"));
        auto events = static_cast<std::int64_t>(m.eventsExecuted);
        std::int64_t base = cfg.streamRequests + 2 * m.batches + loads;
        if (prefetch) {
            EXPECT_GT(m.prefetchesIssued, 0);
            EXPECT_GE(events, base);
            EXPECT_LE(events, base + loads);
        } else {
            EXPECT_EQ(events, base);
        }
    }
}

// ------------------------------------------------- admission queue

namespace {

/** One engine on its own queue, recording completions in order. */
struct EngineHarness
{
    sim::EventQueue eq;
    std::unique_ptr<ServingEngine> engine;
    std::vector<int> completed;

    EngineHarness(SchedulerPolicy policy, int batch, int experts = 16)
    {
        ServingConfig cfg = streamConfig();
        cfg.numExperts = experts;
        cfg.batch = batch;
        cfg.scheduler = policy;
        engine = std::make_unique<ServingEngine>(
            eq, cfg, computePhaseCosts(cfg),
            ExpertZoo::uniform(experts, cfg.expertBase));
        engine->setOnRequestComplete(
            [this](const EngineRequest &r) { completed.push_back(r.id); });
    }

    /** Run @p fn inside an event at tick 0 (engines inject there). */
    template <typename Fn>
    void
    atStart(Fn fn)
    {
        eq.schedule(0, [fn]() mutable { fn(); }, "test.start");
    }

    EngineRequest
    request(int id, int expert)
    {
        TrafficRequest t;
        t.id = id;
        t.expert = expert;
        return engine->makeEngineRequest(t, eq.now());
    }
};

} // namespace

TEST(AdmissionQueue, OlderIdReentersAheadOfNewerOnes)
{
    for (SchedulerPolicy policy :
         {SchedulerPolicy::Fifo, SchedulerPolicy::ExpertAffinity}) {
        EngineHarness h(policy, 2);
        ServingEngine &e = *h.engine;
        h.atStart([&]() {
            e.inject(10, 0); // forms a batch of one at once
            for (int id = 11; id <= 17; id += 2)
                e.inject(id, 0);
            // Retried requests keep their old ids and queue in id
            // order among the newer ones: an ascending run (12, 16),
            // then ids older than that run (14, 3).
            for (int id : {12, 16, 14, 3})
                e.injectAt(h.request(id, 0));
            EXPECT_EQ(e.queueDepth(), 8u);
        });
        h.eq.run();
        EXPECT_EQ(h.completed,
                  (std::vector<int>{10, 3, 11, 12, 13, 14, 15, 16, 17}))
            << "policy " << schedulerPolicyName(policy);
    }
}

TEST(AdmissionQueue, CancelMidQueueKeepsOrder)
{
    for (SchedulerPolicy policy :
         {SchedulerPolicy::Fifo, SchedulerPolicy::ExpertAffinity}) {
        EngineHarness h(policy, 2);
        ServingEngine &e = *h.engine;
        h.atStart([&]() {
            for (int id = 0; id <= 8; ++id)
                e.inject(id, id % 2); // 0 executes; 1..8 queue
            EXPECT_TRUE(e.cancelQueued(4)); // mid-queue, expert 0
            EXPECT_TRUE(e.cancelQueued(3)); // mid-queue, expert 1
            EXPECT_FALSE(e.cancelQueued(4)); // already gone
            EXPECT_FALSE(e.cancelQueued(0)); // executing, not queued
            EXPECT_FALSE(e.cancelQueued(99)); // never admitted
            EXPECT_EQ(e.queueDepth(), 6u);
            // The cancelled 3 re-enters (a retry), ahead of every
            // newer id.
            e.injectAt(h.request(3, 1));
        });
        h.eq.run();
        std::vector<int> got = h.completed;
        if (policy == SchedulerPolicy::Fifo) {
            // FIFO: id order with the cancelled 4 skipped.
            EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 5, 6, 7, 8}));
        } else {
            // Affinity groups by expert, but every queued request
            // completes exactly once and each expert's run is in id
            // order.
            std::multiset<int> ids(got.begin(), got.end());
            EXPECT_EQ(ids, (std::multiset<int>{0, 1, 2, 3, 5, 6, 7, 8}));
            std::vector<int> odd, even;
            for (int id : got)
                (id % 2 ? odd : even).push_back(id);
            EXPECT_TRUE(std::is_sorted(odd.begin(), odd.end()));
            EXPECT_TRUE(std::is_sorted(even.begin(), even.end()));
        }
        EXPECT_EQ(e.queueDepth(), 0u);
        EXPECT_EQ(e.outstanding(), 0);
    }
}

TEST(AdmissionQueue, ExtractQueuedIsIdOrderedWithTombstones)
{
    // Affinity formation takes one expert's requests from the middle
    // of the queue, leaving tombstones; cancels add more. Extraction
    // must still return exactly the queued requests, oldest first.
    EngineHarness h(SchedulerPolicy::ExpertAffinity, 4, 7);
    ServingEngine &e = *h.engine;
    std::set<int> cancelled;
    std::vector<int> extracted;
    int batches = 0;
    e.setOnBatchComplete([&](int) {
        if (++batches == 5) {
            for (const EngineRequest &r : e.extractQueued())
                extracted.push_back(r.id);
        }
    });
    h.atStart([&]() {
        for (int id = 100; id < 300; ++id)
            e.inject(id, (id * 5) % 7);
        for (int id = 103; id < 300; id += 11)
            if (e.cancelQueued(id))
                cancelled.insert(id);
        e.injectAt(h.request(7, 2)); // older than everything queued
    });
    h.eq.run();
    ASSERT_FALSE(extracted.empty());
    EXPECT_TRUE(std::is_sorted(extracted.begin(), extracted.end()));
    std::set<int> expect = {7};
    for (int id = 100; id < 300; ++id)
        expect.insert(id);
    for (int id : cancelled)
        expect.erase(id);
    for (int id : h.completed)
        expect.erase(id);
    EXPECT_EQ(std::set<int>(extracted.begin(), extracted.end()), expect);
    EXPECT_EQ(extracted.size(), expect.size());
    EXPECT_EQ(e.queueDepth(), 0u);
}

namespace {

/**
 * Host seconds to drain @p n requests queued at once behind a busy
 * engine (affinity over 150 experts). The even ids arrive first; the
 * odd ids then re-enter in ascending order, each older than the
 * newest queued, as a drained node's queue does. Every 9th request is
 * cancelled. Best of three, to shed scheduler noise.
 */
double
drainSeconds(int n)
{
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
        EngineHarness h(SchedulerPolicy::ExpertAffinity, 8, 150);
        ServingEngine &e = *h.engine;
        h.atStart([&]() {
            for (int id = 0; id < n; id += 2)
                e.inject(id, (id * 7919) % 150);
            for (int id = 1; id < n; id += 2)
                e.injectAt(h.request(id, (id * 7919) % 150));
            for (int id = 5; id < n; id += 9)
                e.cancelQueued(id);
        });
        auto t0 = std::chrono::steady_clock::now();
        h.eq.run();
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        best = std::min(best, dt.count());
        EXPECT_EQ(e.queueDepth(), 0u);
        EXPECT_EQ(e.outstanding(), 0);
    }
    return best;
}

} // namespace

TEST(AdmissionQueue, DeepQueueDrainsInLinearTime)
{
    // 50k queued requests: every insert, take, cancel and compaction
    // is O(log queue) amortized, so 10x the requests costs ~10x the
    // host time. An insert that shifts the queue or a take that scans
    // it would make it ~100x. The
    // bound is 30x the 5k drain plus 50 ms of slack for timer noise,
    // and holds in sanitizer builds too because it is a ratio.
    double small = drainSeconds(5'000);
    double large = drainSeconds(50'000);
    EXPECT_LT(large, 30.0 * small + 0.05)
        << "5k drain " << small << " s, 50k drain " << large << " s";
}

// ------------------------------------------------- batch plan ties

namespace {

/**
 * Run expert 1's batch of one, then expert 0's batch of @p prompts
 * (at most 2), on a fresh engine after @p setup. Returns the tick at
 * which the last request completed, expert 0's batch end.
 */
template <typename Setup>
sim::Tick
secondBatchEnd(int prompts, Setup setup)
{
    EngineHarness h(SchedulerPolicy::Fifo, 2);
    sim::Tick end = 0;
    h.engine->setOnRequestComplete(
        [&h, &end](const EngineRequest &) { end = h.eq.now(); });
    setup(h);
    h.atStart([&h, prompts]() {
        h.engine->inject(100, 1); // forms a batch of one at once
        for (int id = 0; id < prompts; ++id)
            h.engine->inject(id, 0);
    });
    h.eq.run();
    return end;
}

} // namespace

/**
 * A fault that fires at the tick a prompt would start comes first: a
 * per-prompt event chain started that prompt in an event scheduled
 * after the fault's. So a straggler's factor applies to the prompt,
 * and a crash starts no further prompt.
 */
TEST(BatchPlan, FaultAtAPromptBoundaryPrecedesThatPrompt)
{
    auto none = [](EngineHarness &) {};
    // Identical prompts on idle channels: prompt 0 runs [launch, t1),
    // prompt 1 runs [t1, t1 + d).
    const sim::Tick t1 = secondBatchEnd(1, none);
    const sim::Tick d = secondBatchEnd(2, none) - t1;
    const sim::Tick launch = t1 - d;
    // A straggler at tick @p at, scheduled up front as faults are.
    const double slow = 100.0;
    auto straggler = [slow](sim::Tick at) {
        return [at, slow](EngineHarness &h) {
            h.eq.schedule(
                at, [&h, slow]() { h.engine->setServiceFactor(slow); },
                "test.straggler");
        };
    };
    // At the launch tick it slows prompt 0 ...
    const sim::Tick slow_d = secondBatchEnd(1, straggler(launch)) - launch;
    ASSERT_GT(slow_d, d);
    // ... and at t1 prompt 1.
    EXPECT_EQ(secondBatchEnd(2, straggler(t1)), t1 + slow_d);

    // A crash at t1 leaves a ghost batch that ends there: one tick
    // later the engine is idle.
    bool checked = false;
    secondBatchEnd(2, [t1, &checked](EngineHarness &h) {
        h.eq.schedule(t1, [&h]() {
            EXPECT_EQ(h.engine->crashExtract().size(), 2u);
        }, "test.crash");
        h.eq.schedule(t1 + 1, [&h, &checked]() {
            EXPECT_FALSE(h.engine->busy());
            checked = true;
        }, "test.probe");
    });
    EXPECT_TRUE(checked);
}

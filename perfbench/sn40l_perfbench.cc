/**
 * @file
 * The SN40L simulator benchmark: one workload per invocation, run
 * through the library's public API, with correctness checks and one
 * JSON result line.
 *
 *   sn40l_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--spans FILE]
 *
 * --trace 0 (end-to-end): repeats the whole simulation for about S
 * seconds, with cold set-ups and a machine yardstick timed between
 * passes, and reports medians. Host metrics measure the simulator on
 * the machine it runs on, scaled by the yardstick; sim_* metrics are
 * modeled quantities of the simulated system.
 *
 * --trace 1 (per layer): a warm-up and an untraced pass, a sharded
 * pass where the workload names one, a traced pass that opens a span
 * around each call into a layer, and standalone replays that drive
 * single layers (workload model, LRU runtime, DMA memory system,
 * fabric, event core) with the workload's own generated stream. Spans
 * go to FILE as trace-event JSON.
 *
 * The last line of standard output is always
 *   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
 * Any failed check sets correct to false. Configuration errors exit 1
 * without a result line.
 */

#include <sys/resource.h>

#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "coe/cluster.h"
#include "coe/coe_runtime.h"
#include "coe/cost_cache.h"
#include "coe/fabric.h"
#include "coe/serving.h"
#include "coe/serving_engine.h"
#include "coe/workload.h"
#include "mem/memory_system.h"
#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/stats.h"
#include "spans.h"
#include "util/json.h"

using namespace sn40l;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::secondsSince;
using perfbench::SpanRecorder;

namespace {

// ------------------------------------------------------------ workloads

/** Requests per simulated pass, per workload. */
constexpr int kServeRequests = 1'000'000;
constexpr int kMeshRequests = 20'000;
constexpr int kZooRequests = 800'000;

/** Cold set-ups timed before each end-to-end pass (median reported). */
constexpr int kSetupsPerPass = 3;
/** Simulation passes per end-to-end run, at least. */
constexpr std::size_t kMinPasses = 3;

struct Workload
{
    std::string name;
    bool serve = false;     ///< single-node ServingSimulator
    coe::ClusterConfig cfg; ///< cfg.node is the serving config
    /** Worker threads of the traced run's sharded pass; 0 = none. */
    int parallelThreads = 0;
};

coe::ServingConfig
openLoopNode(std::uint64_t seed, int requests, double rate)
{
    coe::ServingConfig n;
    n.mode = coe::ServingMode::EventDriven;
    n.arrival = coe::ArrivalProcess::Poisson;
    n.batch = 8;
    n.outputTokens = 20;
    n.routing = coe::RoutingDistribution::Zipf;
    n.zipfS = 1.0;
    n.scheduler = coe::SchedulerPolicy::ExpertAffinity;
    n.streamRequests = requests;
    n.arrivalRatePerSec = rate;
    n.seed = seed;
    return n;
}

/** @return false for an unknown workload name. */
bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    w.name = name;
    coe::ClusterConfig &c = w.cfg;
    if (name == "serve_zipf") {
        w.serve = true;
        c.node = openLoopNode(seed, kServeRequests, 16.0);
        c.node.numExperts = 150;
        return true;
    }
    if (name == "cluster_mesh") {
        c.node = openLoopNode(seed, kMeshRequests, 96.0);
        c.node.numExperts = 150;
        c.nodes = 8;
        c.threads = 1;
        c.dispatch = coe::DispatchPolicy::TopologyAware;
        c.placement = coe::PlacementPolicy::ReplicateHotPartitionCold;
        c.fabric.enabled = true;
        c.fabric.topology = sim::Topology::Mesh2D;
        c.fabric.linkGbps = 200.0;
        c.fabric.linkLatencyUs = 2.0;
        c.fabric.linkBufferFlits = 64;
        return true;
    }
    if (name == "cluster_zoo_chaos") {
        const double rate = 48.0;
        c.node = openLoopNode(seed, kZooRequests, rate);
        c.node.numExperts = 2000;
        c.node.zoo.enabled = true;
        c.node.zoo.rank = 16;
        c.node.zoo.churnEverySeconds = 30.0;
        c.node.expertRegionBytes = 15'600'000'000;
        c.node.specDecode.enabled = true;
        c.node.specDecode.gamma = 4;
        c.node.specDecode.acceptRate = 0.8;
        c.nodes = 4;
        // End-to-end passes run on one thread: on a shared machine the
        // sharded run's window barriers wait for the slowest core, and
        // its run-to-run spread was 2-3x the serial one. The traced run
        // times the sharded path against this one.
        c.threads = 1;
        w.parallelThreads = 2;
        c.dispatch = coe::DispatchPolicy::ExpertAffinity;
        c.placement = coe::PlacementPolicy::ReplicateHotPartitionCold;
        // Faults sit at fixed shares of the planned arrival span (at
        // 800k requests: 2000, 5000, 8000 and 11000 s).
        const double span = kZooRequests / rate;
        c.faults = std::make_shared<std::vector<coe::FaultEvent>>(
            std::vector<coe::FaultEvent>{
                {0.12 * span, coe::FaultKind::DmaStall, 1, 4.0, 600.0},
                {0.30 * span, coe::FaultKind::Straggler, 2, 1.3, 600.0},
                {0.48 * span, coe::FaultKind::NodeCrash, 3, 1.0, 60.0},
                {0.66 * span, coe::FaultKind::FlakyNode, 0, 0.02, 600.0},
            });
        c.faultPolicy.retryMax = 3;
        return true;
    }
    return false;
}

// ------------------------------------------------------------- passes

/** What one simulated pass produced, for serve and cluster alike. */
struct Outcome
{
    bool oom = false;
    coe::StreamMetrics stream;
    double missRate = 0.0;
    double misses = 0.0;
    double loads = 0.0;     ///< expert DMA loads issued
    double loadBytes = 0.0; ///< bytes those loads moved
    coe::ClusterResult cluster; ///< cluster workloads only
    double wall = 0.0;          ///< host seconds of run()
};

double
expertBytes(const coe::ServingConfig &cfg)
{
    return coe::buildServingZoo(cfg).maxExpertBytes();
}

Outcome
fromCluster(const coe::ClusterConfig &cfg, coe::ClusterResult r)
{
    Outcome o;
    o.oom = r.oom;
    o.stream = r.stream;
    o.missRate = r.missRate;
    for (const coe::ClusterNodeMetrics &n : r.nodes)
        o.misses += static_cast<double>(n.misses);
    // Every demand miss streams one whole expert (uniform zoo).
    o.loads = o.misses;
    o.loadBytes = o.loads * expertBytes(cfg.node);
    o.cluster = std::move(r);
    return o;
}

/** One full pass; host time covers run() only, not construction. */
Outcome
runPass(const Workload &w, const coe::ClusterConfig &cfg)
{
    if (w.serve) {
        coe::ServingSimulator sim(cfg.node);
        auto t0 = Clock::now();
        coe::ServingResult r = sim.run();
        Outcome o;
        o.wall = secondsSince(t0);
        o.oom = r.oom;
        o.stream = r.stream;
        o.missRate = r.missRate;
        o.misses = sim.stats().get("misses");
        o.loads = sim.stats().get("dma_loads_issued");
        o.loadBytes = sim.stats().get("dma_load_bytes");
        return o;
    }
    coe::ClusterSimulator sim(cfg);
    auto t0 = Clock::now();
    coe::ClusterResult r = sim.run();
    double wall = secondsSince(t0);
    Outcome o = fromCluster(cfg, std::move(r));
    o.wall = wall;
    return o;
}

/**
 * Cold set-up as a CLI user pays it: the process-wide cost memo is
 * emptied first, so the constructor prices every graph again.
 */
double
coldSetupSeconds(const Workload &w)
{
    coe::CostModelCache::instance().clear();
    auto t0 = Clock::now();
    if (w.serve) {
        coe::ServingSimulator sim(w.cfg.node);
        return secondsSince(t0);
    }
    coe::ClusterSimulator sim(w.cfg);
    if (!sim.begin())
        sim::fatal("perfbench: placement does not fit (OOM)");
    return secondsSince(t0);
}

/** Simulated quantities that must repeat exactly for one seed. */
std::vector<double>
fingerprint(const Outcome &o)
{
    const coe::StreamMetrics &m = o.stream;
    return {static_cast<double>(m.completed),
            static_cast<double>(m.shed),
            static_cast<double>(m.lost),
            static_cast<double>(m.retried),
            static_cast<double>(m.eventsExecuted),
            m.p50LatencySeconds,
            m.p99LatencySeconds,
            m.maxLatencySeconds,
            m.throughputTokensPerSec,
            m.makespanSeconds,
            o.missRate,
            o.loads,
            static_cast<double>(o.cluster.networkMessages),
            static_cast<double>(o.cluster.networkFlits),
            static_cast<double>(o.cluster.faultsInjected)};
}

/** Checks every pass must satisfy; returns the violations. */
std::vector<std::string>
checkPass(const Outcome &o, std::int64_t attempted)
{
    std::vector<std::string> bad;
    const coe::StreamMetrics &m = o.stream;
    if (o.oom)
        bad.push_back("placement/region OOM");
    if (m.completed + m.shed + m.lost != attempted)
        bad.push_back("completed + shed + lost = " +
                      std::to_string(m.completed + m.shed + m.lost) +
                      " != attempted " + std::to_string(attempted));
    if (!(m.p50LatencySeconds > 0.0 &&
          m.p50LatencySeconds <= m.p99LatencySeconds &&
          m.p99LatencySeconds <= m.maxLatencySeconds))
        bad.push_back("latency quantiles out of order (p50 <= p99 <= max)");
    if (m.eventsExecuted == 0)
        bad.push_back("no events executed");
    return bad;
}

// ------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

double
peakRssMiB()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // Linux: KiB
}

/**
 * Machine yardstick: a fixed heap-and-table loop that calls no
 * simulator code, timed between passes. A shared machine's speed
 * drifts by 10-20% over tens of seconds, and the yardstick drifts with
 * it. End-to-end host metrics are scaled to a machine on which the
 * yardstick takes kYardstickNominalSeconds; that cancels most of the
 * drift without hiding a change to the simulator, because the
 * yardstick is the benchmark's own code.
 */
constexpr double kYardstickNominalSeconds = 0.32;
constexpr int kYardstickSteps = 2'000'000;
volatile std::uint64_t yardstickSink = 0;

double
yardstickSeconds()
{
    using Entry = std::pair<std::uint64_t, std::uint32_t>;
    auto t0 = Clock::now();
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    std::vector<std::uint64_t> table(1u << 20, 0);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x]() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    auto slot = [&](std::uint64_t v) {
        return static_cast<std::uint32_t>(v % table.size());
    };
    for (int i = 0; i < 4096; ++i)
        heap.push({next() % 1000, slot(next())});
    for (int i = 0; i < kYardstickSteps; ++i) {
        Entry e = heap.top();
        heap.pop();
        table[e.second] += e.first;
        heap.push({e.first + 1 + next() % 1000,
                   slot(e.second * 2654435761ull + next())});
    }
    yardstickSink = table[slot(next())];
    return secondsSince(t0);
}

void
printResult(bool correct, std::int64_t attempted, std::int64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::cout << "  " << m.name << " = " << m.value << " " << m.unit
                  << "\n";
    util::JsonWriter w(std::cout);
    w.beginObject()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .key("metrics")
        .beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name.c_str())
            .beginObject()
            .field("value", m.value)
            .field("unit", m.unit)
            .endObject();
    }
    w.endObject().endObject();
    std::cout << std::endl;
}

void
report(std::vector<std::string> &problems, const std::string &where,
       const std::vector<std::string> &bad)
{
    for (const std::string &b : bad) {
        std::cerr << "perfbench: CHECK FAILED (" << where << "): " << b
                  << "\n";
        problems.push_back(b);
    }
}

// ---------------------------------------------------------- end to end

int
runEndToEnd(const Workload &w, double seconds)
{
    const std::int64_t requests = w.cfg.node.streamRequests;
    sim::Distribution setups;
    sim::Distribution walls;
    sim::Distribution yardsticks;
    Outcome first;
    double peak_rss_mib = 0.0;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> problems;
    auto start = Clock::now();
    // Cold set-ups and the yardstick are interleaved with the passes so
    // all three sample the machine over the same window. Stop before a
    // further pass would overrun the window.
    while (walls.count() < kMinPasses ||
           secondsSince(start) * (1.0 + 1.0 / static_cast<double>(
                                            walls.count())) <= seconds) {
        for (int i = 0; i < kSetupsPerPass; ++i)
            setups.record(coldSetupSeconds(w));
        Outcome o = runPass(w, w.cfg);
        std::vector<std::string> bad = checkPass(o, requests);
        if (walls.count() == 0) {
            first = o;
            // Before the first yardstick, whose table would count too.
            peak_rss_mib = peakRssMiB();
        } else if (fingerprint(o) != fingerprint(first)) {
            bad.push_back("simulated metrics differ between passes of "
                          "one seed");
        }
        report(problems, "pass " + std::to_string(walls.count()), bad);
        attempted += requests;
        failed += bad.empty() ? o.stream.shed + o.stream.lost : requests;
        walls.record(o.wall);
        yardsticks.record(yardstickSeconds());
    }

    const coe::StreamMetrics &m = first.stream;
    double completed = static_cast<double>(m.completed);
    double scale = kYardstickNominalSeconds / yardsticks.quantile(0.5);
    std::cout << w.name << ": seed " << w.cfg.node.seed << ", "
              << walls.count() << " passes of " << requests
              << " requests, " << setups.count() << " cold set-ups\n"
              << "  raw medians: pass " << walls.quantile(0.5)
              << " s, set-up " << setups.quantile(0.5) << " s, yardstick "
              << yardsticks.quantile(0.5)
              << " s (host times below x" << scale << ")\n  pass host s:";
    for (double s : walls.samples())
        std::cout << " " << s;
    std::cout << "\n";
    std::vector<Metric> metrics = {
        {"setup_s", setups.quantile(0.5) * scale, "s"},
        {"sim_requests_per_host_s",
         completed / (walls.quantile(0.5) * scale),
         "req/host-s"},
        {"events_per_request",
         static_cast<double>(m.eventsExecuted) / completed, "count"},
        {"peak_rss_mib", peak_rss_mib, "MiB"},
        {"sim_p50_ms", m.p50LatencySeconds * 1e3, "sim_ms"},
        {"sim_p99_ms", m.p99LatencySeconds * 1e3, "sim_ms"},
        {"sim_completed", completed, "count"},
        {"sim_tokens_per_s", m.throughputTokensPerSec, "sim_tok/s"},
        {"completed_fraction",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"},
    };
    printResult(problems.empty(), attempted, failed, metrics);
    return 0;
}

// ------------------------------------------------------------ replays

/** One generated arrival: its tick and routed expert. */
struct Arrival
{
    sim::Tick tick;
    int expert;
};

/**
 * Drive the workload model alone on a standalone queue and keep the
 * stream it emits (the input of every other replay).
 */
std::vector<Arrival>
replayWorkload(const coe::ServingConfig &cfg, SpanRecorder &rec,
               double &ns_per_request, std::vector<std::string> &problems)
{
    ScopedSpan span(rec, "replay.coe.workload");
    std::vector<Arrival> stream;
    stream.reserve(static_cast<std::size_t>(cfg.streamRequests));
    sim::EventQueue eq;
    std::unique_ptr<coe::WorkloadModel> model;
    auto t0 = Clock::now();
    rec.call("coe.makeWorkloadModel",
             [&]() { model = coe::makeWorkloadModel(cfg); });
    rec.call("coe.WorkloadModel.bind", [&]() {
        model->bind(eq, [&](const coe::TrafficRequest &r) {
            stream.push_back({eq.now(), r.expert});
        });
    });
    rec.call("coe.WorkloadModel.start", [&]() { model->start(); });
    rec.call("sim.EventQueue.run", [&]() { eq.run(); });
    ns_per_request =
        secondsSince(t0) * 1e9 / static_cast<double>(stream.size());
    if (static_cast<std::int64_t>(stream.size()) != cfg.streamRequests ||
        model->emitted() != model->plannedRequests())
        report(problems, "workload replay",
               {"workload emitted " + std::to_string(stream.size()) +
                " of " + std::to_string(cfg.streamRequests) +
                " requests"});
    return stream;
}

struct RuntimeReplay
{
    double nsPerActivate = 0.0;
    double missRate = 0.0;
    std::vector<std::size_t> misses; ///< stream indices that missed
};

/**
 * The routed sequence through one synchronous LRU (CoeRuntime::
 * activate) in arrival order. The region is the cluster's pooled
 * expert HBM (nodes x one node's region), so on serve_zipf it is the
 * node's own region.
 */
RuntimeReplay
replayRuntime(const coe::ClusterConfig &cfg,
              const std::vector<Arrival> &stream, SpanRecorder &rec)
{
    ScopedSpan span(rec, "replay.coe.coe_runtime");
    RuntimeReplay out;
    coe::ExpertZoo zoo = coe::buildServingZoo(cfg.node);
    coe::PhaseCosts costs = coe::computePhaseCosts(cfg.node);
    std::int64_t region = cfg.nodes *
        coe::ServingEngine::effectiveExpertRegionBytes(cfg.node, costs);
    coe::CoeRuntime runtime(zoo, region);
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < stream.size(); ++i) {
        bool hit = false;
        rec.call("coe.CoeRuntime.activate", [&]() {
            hit = runtime.activate(stream[i].expert).hit;
        });
        if (!hit)
            out.misses.push_back(i);
    }
    double n = static_cast<double>(stream.size());
    out.nsPerActivate = secondsSince(t0) * 1e9 / n;
    out.missRate = static_cast<double>(out.misses.size()) / n;
    return out;
}

struct DmaReplay
{
    double nsPerLoad = 0.0;
    double eventsPerLoad = 0.0;
};

/**
 * The replayed miss stream as DDR->HBM loads on a standalone
 * MemorySystem shaped like the workload's node, each issued at its
 * request's arrival tick.
 */
DmaReplay
replayDma(const coe::ServingConfig &cfg, const std::vector<Arrival> &stream,
          const std::vector<std::size_t> &misses, SpanRecorder &rec,
          std::vector<std::string> &problems)
{
    ScopedSpan span(rec, "replay.mem.dma");
    DmaReplay out;
    if (misses.empty())
        return out;
    sim::EventQueue eq;
    mem::MemorySystem memsys(eq, "replay", coe::platformMemoryConfig(cfg));
    const double bytes = expertBytes(cfg);
    std::int64_t done = 0;
    std::size_t next = 0;
    // One self-rescheduling issue event per load; subtracted from the
    // event count below.
    std::function<void()> issue = [&]() {
        std::size_t i = misses[next];
        auto expert = static_cast<std::int64_t>(stream[i].expert);
        rec.call("mem.MemorySystem.load", [&]() {
            memsys.load(expert * static_cast<std::int64_t>(bytes), 0, bytes,
                        mem::TransferPriority::Demand, [&done]() { ++done; });
        });
        if (++next < misses.size())
            eq.schedule(stream[misses[next]].tick, [&issue]() { issue(); },
                        "perfbench.load");
    };
    auto t0 = Clock::now();
    eq.schedule(stream[misses[0]].tick, [&issue]() { issue(); },
                "perfbench.load");
    rec.call("sim.EventQueue.run", [&]() { eq.run(); });
    double loads = static_cast<double>(misses.size());
    out.nsPerLoad = secondsSince(t0) * 1e9 / loads;
    out.eventsPerLoad =
        (static_cast<double>(eq.executedCount()) - loads) / loads;
    if (done != static_cast<std::int64_t>(misses.size()))
        report(problems, "dma replay",
               {"only " + std::to_string(done) + " of " +
                std::to_string(misses.size()) + " replayed loads landed"});
    return out;
}

struct NetworkReplay
{
    std::int64_t messages = 0;
    std::int64_t flits = 0;
    double eventsPerMessage = 0.0;
    double usPerMessage = 0.0;
    double transitP99Us = 0.0;
};

/**
 * Every dispatch of the workload through ClusterFabric::sendRequest on
 * a standalone queue, at its arrival tick, to the node the cluster's
 * topology-aware policy picks (least-congested hub path among the
 * expert's hosts; ties to the fewest requests sent so far).
 */
NetworkReplay
replayNetwork(const coe::ClusterConfig &cfg,
              const std::vector<Arrival> &stream, SpanRecorder &rec,
              const coe::ClusterResult &integrated,
              std::vector<std::string> &problems)
{
    ScopedSpan span(rec, "replay.sim.network");
    NetworkReplay out;
    sim::EventQueue eq;
    coe::ClusterFabric fabric(eq, cfg.fabric, cfg.nodes);
    coe::ExpertPlacement placement = coe::makePlacement(
        cfg.placement, cfg.node.numExperts, cfg.nodes, cfg.hotExperts);
    std::vector<std::int64_t> sent(static_cast<std::size_t>(cfg.nodes), 0);
    sim::Distribution transit;
    std::size_t next = 0;
    std::function<void()> dispatch = [&]() {
        const auto &hosts =
            placement.hostsOfExpert[static_cast<std::size_t>(
                stream[next].expert)];
        int best = hosts.front();
        double best_cong = fabric.hubCongestion(best);
        for (std::size_t h = 1; h < hosts.size(); ++h) {
            int n = hosts[h];
            double cong = fabric.hubCongestion(n);
            if (cong < best_cong ||
                (cong == best_cong &&
                 sent[static_cast<std::size_t>(n)] <
                     sent[static_cast<std::size_t>(best)])) {
                best = n;
                best_cong = cong;
            }
        }
        ++sent[static_cast<std::size_t>(best)];
        sim::Tick sent_at = eq.now();
        rec.call("coe.ClusterFabric.sendRequest", [&]() {
            fabric.sendRequest(best, cfg.fabric.requestPayloadBytes,
                               [&eq, &transit, sent_at]() {
                                   transit.record(
                                       sim::toSeconds(eq.now() - sent_at) *
                                       1e6);
                               });
        });
        if (++next < stream.size())
            eq.schedule(stream[next].tick, [&dispatch]() { dispatch(); },
                        "perfbench.dispatch");
    };
    auto t0 = Clock::now();
    eq.schedule(stream[0].tick, [&dispatch]() { dispatch(); },
                "perfbench.dispatch");
    rec.call("sim.EventQueue.run", [&]() { eq.run(); });
    double wall = secondsSince(t0);

    out.messages = fabric.messagesDelivered();
    out.flits = fabric.flitsDelivered();
    double msgs = static_cast<double>(out.messages);
    double dispatches = static_cast<double>(stream.size());
    out.eventsPerMessage =
        (static_cast<double>(eq.executedCount()) - dispatches) / msgs;
    out.usPerMessage = wall * 1e6 / msgs;
    out.transitP99Us = transit.quantile(0.99);

    // The replay must carry exactly the integrated run's traffic.
    std::vector<std::string> bad;
    if (out.messages != integrated.networkMessages ||
        out.flits != integrated.networkFlits)
        bad.push_back("fabric replay sent " +
                      std::to_string(out.messages) + " messages / " +
                      std::to_string(out.flits) +
                      " flits; the integrated run reports " +
                      std::to_string(integrated.networkMessages) + " / " +
                      std::to_string(integrated.networkFlits));
    for (const coe::ClusterNodeMetrics &n : integrated.nodes)
        if (sent[static_cast<std::size_t>(n.node)] != n.dispatched)
            bad.push_back("fabric replay dispatched " +
                          std::to_string(
                              sent[static_cast<std::size_t>(n.node)]) +
                          " requests to node " + std::to_string(n.node) +
                          ", the integrated run " +
                          std::to_string(n.dispatched));
    report(problems, "fabric cross-check", bad);
    return out;
}

/**
 * Raw event core: 64 self-rescheduling chains, each fire also
 * scheduling and cancelling one event (the serving loop's mix).
 */
double
coreNsPerEvent(SpanRecorder &rec)
{
    ScopedSpan span(rec, "replay.sim.event_queue");
    constexpr std::uint64_t kEvents = 4'000'000;
    constexpr int kChains = 64;
    sim::EventQueue eq;
    std::uint64_t fired = 0;
    std::function<void(int)> chain = [&](int c) {
        ++fired;
        if (eq.executedCount() >= kEvents)
            return;
        auto doomed = eq.scheduleIn(2, []() {}, "perfbench.cancelled");
        doomed.cancel();
        eq.scheduleIn(1, [&chain, c]() { chain(c); }, "perfbench.chain");
    };
    auto t0 = Clock::now();
    for (int c = 0; c < kChains; ++c)
        eq.scheduleIn(1, [&chain, c]() { chain(c); }, "perfbench.chain");
    rec.call("sim.EventQueue.run", [&]() { eq.run(); });
    return secondsSince(t0) * 1e9 / static_cast<double>(fired);
}

// -------------------------------------------------------- traced pass

/**
 * A threads-1 cluster pass advanced in fixed sim-time windows through
 * eventQueue().run(limit), with snapshot() after each window. Records
 * the host milliseconds each window took.
 */
Outcome
runWindowed(const coe::ClusterConfig &cfg, SpanRecorder &rec,
            sim::Distribution &window_ms)
{
    ScopedSpan span(rec, "bench.traced_pass");
    coe::ClusterSimulator sim(cfg);
    auto t0 = Clock::now();
    bool ok = false;
    rec.call("coe.ClusterSimulator.begin", [&]() { ok = sim.begin(); });
    if (!ok) {
        Outcome o;
        o.oom = true;
        return o;
    }
    // ~100 arrivals per window.
    const sim::Tick window =
        sim::fromSeconds(100.0 / cfg.node.arrivalRatePerSec);
    sim::EventQueue &eq = sim.eventQueue();
    sim::Tick limit = window;
    while (!eq.empty()) {
        ScopedSpan win(rec, "coe.cluster.window");
        auto w0 = Clock::now();
        rec.call("sim.EventQueue.run", [&]() { eq.run(limit); });
        window_ms.record(secondsSince(w0) * 1e3);
        rec.call("coe.ClusterSimulator.snapshot", [&]() { sim.snapshot(); });
        limit += window;
    }
    coe::ClusterResult r;
    rec.call("coe.ClusterSimulator.finish", [&]() { r = sim.finish(); });
    double wall = secondsSince(t0);
    Outcome o = fromCluster(cfg, std::move(r));
    o.wall = wall;
    return o;
}

int
runTraced(const Workload &w, const std::string &span_path)
{
    SpanRecorder rec;
    std::vector<std::string> problems;
    const std::int64_t requests = w.cfg.node.streamRequests;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    auto account = [&](const Outcome &o, const std::string &where,
                       std::vector<std::string> bad) {
        std::vector<std::string> more = checkPass(o, requests);
        bad.insert(bad.end(), more.begin(), more.end());
        report(problems, where, bad);
        attempted += requests;
        failed += bad.empty() ? o.stream.shed + o.stream.lost : requests;
    };

    double phase_costs_s = 0.0;
    double begin_s = 0.0;
    int root = rec.open("bench.traced_run");
    {
        ScopedSpan setup(rec, "bench.setup");
        coe::CostModelCache::instance().clear();
        auto t0 = Clock::now();
        rec.call("coe.computePhaseCosts",
                 [&]() { coe::computePhaseCosts(w.cfg.node); });
        phase_costs_s = secondsSince(t0);
        if (w.serve) {
            rec.call("coe.ServingSimulator.ctor",
                     [&]() { coe::ServingSimulator sim(w.cfg.node); });
        } else {
            coe::ClusterSimulator sim(w.cfg);
            auto b0 = Clock::now();
            rec.call("coe.ClusterSimulator.begin", [&]() { sim.begin(); });
            begin_s = secondsSince(b0);
        }
    }

    // Untraced pass of the workload as configured, after a warm-up
    // pass: the first pass in a process also pays for heap growth.
    Outcome base;
    {
        ScopedSpan s(rec, "bench.warmup_pass");
        base = runPass(w, w.cfg);
    }
    account(base, "warm-up pass", {});
    {
        ScopedSpan s(rec, "bench.untraced_pass");
        base = runPass(w, w.cfg);
    }
    account(base, "untraced pass", {});

    // The same workload sharded: it must reproduce the threads-1
    // pass on every exact aggregate (quantiles legitimately differ
    // beyond the 64Ki exact window).
    double speedup = 0.0;
    if (w.parallelThreads > 1) {
        coe::ClusterConfig par_cfg = w.cfg;
        par_cfg.threads = w.parallelThreads;
        Outcome par;
        {
            ScopedSpan s(rec, "bench.parallel_pass");
            par = runPass(w, par_cfg);
        }
        speedup = base.wall / par.wall;
        const coe::StreamMetrics &a = base.stream;
        const coe::StreamMetrics &b = par.stream;
        std::vector<std::string> bad;
        if (a.completed != b.completed ||
            a.makespanSeconds != b.makespanSeconds || a.lost != b.lost ||
            a.retried != b.retried || base.misses != par.misses)
            bad.push_back("threads-" + std::to_string(w.parallelThreads) +
                          " pass differs from the threads-1 pass "
                          "(completed/makespan/lost/retried/misses)");
        account(par, "parallel equivalence", bad);
    }

    sim::Distribution window_ms;
    Outcome traced;
    if (w.serve) {
        ScopedSpan s(rec, "bench.traced_pass");
        rec.call("coe.ServingSimulator.run",
                 [&]() { traced = runPass(w, w.cfg); });
    } else {
        traced = runWindowed(w.cfg, rec, window_ms);
    }
    account(traced, "traced pass",
            fingerprint(traced) == fingerprint(base)
                ? std::vector<std::string>{}
                : std::vector<std::string>{
                      "traced pass differs from the untraced pass"});

    // Standalone layer replays on the workload's own stream.
    double ns_per_request = 0.0;
    std::vector<Arrival> stream =
        replayWorkload(w.cfg.node, rec, ns_per_request, problems);
    RuntimeReplay rt = replayRuntime(w.cfg, stream, rec);
    DmaReplay dma = replayDma(w.cfg.node, stream, rt.misses, rec, problems);
    NetworkReplay net;
    if (w.cfg.fabric.enabled)
        net = replayNetwork(w.cfg, stream, rec, base.cluster, problems);
    double core_ns = coreNsPerEvent(rec);
    double yardstick = 0.0;
    {
        ScopedSpan s(rec, "bench.yardstick");
        yardstick = yardstickSeconds();
    }
    rec.close(root);

    if (!rec.write(span_path))
        report(problems, "spans", {"cannot write " + span_path});

    const coe::StreamMetrics &m = base.stream;
    const coe::ClusterResult &c = base.cluster;
    double completed = static_cast<double>(m.completed);
    double messages = static_cast<double>(c.networkMessages);
    std::cout << w.name << " (traced): seed " << w.cfg.node.seed << ", "
              << rec.size() << " spans -> " << span_path << "\n";
    std::vector<Metric> metrics = {
        {"sim.event_queue.core_ns_per_event", core_ns, "ns"},
        {"sim.event_queue.host_ns_per_event",
         base.wall * 1e9 / static_cast<double>(m.eventsExecuted), "ns"},
        {"coe.workload.host_ns_per_request", ns_per_request, "ns"},
        {"compiler.phase_costs_cold_s", phase_costs_s, "s"},
        {"coe.cluster.begin_s", begin_s, "s"},
        {"coe.serving_engine.batch_occupancy", m.meanBatchOccupancy,
         "req/batch"},
        {"coe.serving_engine.queue_wait_mean_ms",
         m.throughputRequestsPerSec > 0.0
             ? m.meanQueueDepth / m.throughputRequestsPerSec * 1e3
             : 0.0,
         "sim_ms"},
        {"coe.serving_engine.queue_depth_max", m.maxQueueDepth, "count"},
        {"coe.coe_runtime.miss_rate", base.missRate, "ratio"},
        {"coe.coe_runtime.host_ns_per_activate", rt.nsPerActivate, "ns"},
        {"coe.coe_runtime.replay_miss_rate", rt.missRate, "ratio"},
        {"mem.dma.loads_per_request", base.loads / completed, "count"},
        {"mem.dma.bytes_per_load",
         base.loads > 0.0 ? base.loadBytes / base.loads : 0.0, "B"},
        {"mem.dma.switch_stall_mean_ms", m.meanSwitchStallSeconds * 1e3,
         "sim_ms"},
        {"mem.dma.switch_stall_p95_ms", m.p95SwitchStallSeconds * 1e3,
         "sim_ms"},
        {"mem.dma.host_ns_per_load", dma.nsPerLoad, "ns"},
        {"mem.dma.events_per_load", dma.eventsPerLoad, "count"},
        {"sim.network.messages", messages, "count"},
        {"sim.network.flits_per_message",
         messages > 0.0 ? static_cast<double>(c.networkFlits) / messages
                        : 0.0,
         "count"},
        {"sim.network.events_per_message", net.eventsPerMessage, "count"},
        {"sim.network.host_us_per_message", net.usPerMessage, "us"},
        {"sim.network.transit_p99_us", net.transitP99Us, "sim_us"},
        {"sim.network.credit_stalls",
         static_cast<double>(c.networkCreditStalls), "count"},
        {"sim.network.max_link_utilization", c.networkMaxLinkUtilization,
         "ratio"},
        {"coe.cluster.load_imbalance", w.serve ? 1.0 : c.loadImbalance,
         "ratio"},
        {"coe.cluster.window_host_ms_p99", window_ms.quantile(0.99), "ms"},
        {"coe.cluster.parallel_speedup_2t", speedup, "x"},
        {"coe.faults.injected", static_cast<double>(c.faultsInjected),
         "count"},
        {"coe.faults.retried", static_cast<double>(m.retried), "count"},
        {"coe.faults.lost", static_cast<double>(m.lost), "count"},
        {"coe.faults.redispatched", static_cast<double>(c.redispatched),
         "count"},
        {"runtime.spec_decode.tokens_per_step", m.specTokensPerStep,
         "tok/step"},
        {"bench.yardstick_s", yardstick, "s"},
        {"bench.trace_overhead_pct",
         (traced.wall - base.wall) / base.wall * 100.0, "%"},
    };
    printResult(problems.empty(), attempted, failed, metrics);
    return 0;
}

// --------------------------------------------------------------- main

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: sn40l_perfbench --workload "
                 "serve_zipf|cluster_mesh|cluster_zoo_chaos --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string span_path = "perfbench-spans.json";
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (i + 1 >= argc)
                return usage(arg + " expects a value");
            std::string val = argv[++i];
            std::size_t used = 0;
            if (arg == "--workload") {
                workload = val;
            } else if (arg == "--seed") {
                seed = std::stoull(val, &used);
            } else if (arg == "--seconds") {
                seconds = std::stod(val, &used);
                if (!(seconds > 0.0 && seconds <= 3600.0))
                    return usage("--seconds must be in (0, 3600]");
            } else if (arg == "--trace") {
                trace = std::stoi(val, &used);
                if (trace != 0 && trace != 1)
                    return usage("--trace must be 0 or 1");
            } else if (arg == "--spans") {
                span_path = val;
            } else {
                return usage("unknown argument " + arg);
            }
            if (used != 0 && used != val.size())
                return usage("malformed value for " + arg + ": " + val);
        }
    } catch (const std::exception &) {
        return usage("malformed numeric argument");
    }

    Workload w;
    if (!makeWorkload(workload, seed, w))
        return usage("unknown workload '" + workload + "'");
    try {
        return trace ? runTraced(w, span_path) : runEndToEnd(w, seconds);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: error: " << e.what() << "\n";
        return 1;
    }
}

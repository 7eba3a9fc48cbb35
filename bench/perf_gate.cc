/**
 * @file
 * Simulator performance gate (not a paper figure): measures how fast
 * the simulator itself runs and how many events it executes per
 * request, so engine regressions are caught the way model regressions
 * are.
 *
 * Two measurements come first and are reported only:
 *
 *  - event core: a raw EventQueue schedule/fire/cancel loop (no model
 *    code), isolating the slab-pooled event core.
 *  - cold set-up: the median of 5 ServingSimulator constructions with
 *    the process-wide cost memo cleared first, as a CLI run pays it
 *    (graph build, compile and machine walk of four phase shapes). A
 *    wall-clock ceiling loose enough for shared CI runners would not
 *    catch even a 3x regression, so it is never gated.
 *
 * Then a table of passes, each one ClusterSimulator run over Zipf(1.0)
 * routing across 150 experts at batch 8 with near-saturation arrivals
 * (16 req/s per node):
 *
 *   serve      1 node, as `sn40l_run serve` runs it (ServingSimulator
 *              is a 1-node cluster, so the events are the same);
 *   prefetch   serve over a 2000-adapter LoRA zoo with prefetch depth
 *              8 and HBM derated to 0.6 of its platform bandwidth: the
 *              one path where a batch's coe.batch_done fires early and
 *              re-arms, because prefetches issued mid-batch all run
 *              long and delay HBM-bound prompts;
 *   cluster    --nodes nodes, replicate-hot placement, least-
 *              outstanding dispatch on the shared hub queue;
 *   controller cluster under the reactive autoscaler (floor 1 node);
 *   fabric     cluster on a 2-D mesh with topology-aware dispatch;
 *   chaos      expert-affinity dispatch over a 2000-adapter zoo with
 *              spec decode and a scripted DMA stall, straggler, crash
 *              and flaky node, retry-max 3. Requests lost to exhausted
 *              retries are allowed; the event count is still exact.
 *
 * Writes BENCH_perf.json. With --floor FILE it exits non-zero when a
 * pass with a wall-clock floor runs below 0.8x its `<name>_events_per_sec`
 * floor, when a pass executes more events per request than its exact
 * `<name>_events_per_request` ceiling, or when the prefetch pass
 * re-arms no batch. Event counts are machine-independent, so the
 * ceilings and the re-arm check apply only at the floor's own
 * nodes/requests (bench/perf_gate_floor.json has the methodology).
 *
 *   perf_gate [--smoke] [--requests N] [--nodes N] [--json FILE]
 *             [--floor FILE]
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "coe/cost_cache.h"
#include "coe/faults.h"
#include "coe/serving.h"
#include "perf_common.h"
#include "sim/event_queue.h"
#include "util/json.h"

using namespace sn40l;
using bench::wallSeconds;

namespace {

/** One row of the gate; its floor keys are `<name>_events_per_*`. */
struct Pass
{
    std::string name;
    coe::ClusterConfig cfg;
    bool lostAllowed = false;
    bool wallFloor = false; ///< gated on `<name>_events_per_sec`
};

/**
 * Raw event-core throughput: K concurrent self-rescheduling chains
 * plus one cancelled event per fire, the schedule/fire/cancel mix the
 * serving loop produces.
 */
double
coreEventsPerSec(std::uint64_t events)
{
    sim::EventQueue eq;
    constexpr int kChains = 64;
    std::uint64_t fired = 0;
    std::function<void(int)> chain = [&](int c) {
        ++fired;
        if (eq.executedCount() >= events)
            return;
        auto doomed = eq.scheduleIn(2, []() {}, "perf.cancelled");
        doomed.cancel();
        eq.scheduleIn(1, [&chain, c]() { chain(c); }, "perf.chain");
    };
    auto start = std::chrono::steady_clock::now();
    for (int c = 0; c < kChains; ++c)
        eq.scheduleIn(1, [&chain, c]() { chain(c); }, "perf.chain");
    eq.run();
    double wall = wallSeconds(start);
    return wall > 0.0 ? static_cast<double>(fired) / wall : 0.0;
}

/** The serving stack every pass starts from, at @p nodes nodes. */
coe::ClusterConfig
baseConfig(int nodes, int requests)
{
    coe::ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.node.numExperts = 150;
    cfg.node.batch = 8;
    cfg.node.streamRequests = requests;
    cfg.node.arrivalRatePerSec = 16.0 * nodes;
    cfg.node.routing = coe::RoutingDistribution::Zipf;
    cfg.node.zipfS = 1.0;
    cfg.node.scheduler = coe::SchedulerPolicy::ExpertAffinity;
    cfg.node.seed = 1;
    return cfg;
}

/** A 2000-adapter rank-16 LoRA zoo in place of the 150 experts. */
void
useZoo(coe::ServingConfig &node)
{
    node.numExperts = 2000;
    node.zoo.enabled = true;
    node.zoo.rank = 16;
}

std::vector<Pass>
passTable(int nodes, int requests)
{
    coe::ClusterConfig serve = baseConfig(1, requests);

    coe::ClusterConfig prefetch = serve;
    useZoo(prefetch.node);
    prefetch.node.predictivePrefetch = true;
    prefetch.node.prefetchDepth = 8;
    mem::MemorySystemConfig derated = coe::platformMemoryConfig(serve.node);
    derated.hbm.perChannelBandwidth *= 0.6;
    prefetch.node.memoryOverride = derated;

    coe::ClusterConfig cluster = baseConfig(nodes, requests);
    cluster.placement = coe::PlacementPolicy::ReplicateHotPartitionCold;
    cluster.hotExperts = 15;
    cluster.dispatch = coe::DispatchPolicy::LeastOutstanding;

    coe::ClusterConfig controller = cluster;
    controller.controller.policy = coe::ControllerPolicy::ReactiveThreshold;
    controller.controller.minNodes = 1;

    coe::ClusterConfig fabric = cluster;
    fabric.dispatch = coe::DispatchPolicy::TopologyAware;
    fabric.fabric.enabled = true;
    fabric.fabric.topology = sim::Topology::Mesh2D;

    // Four faults at fixed shares of the arrival span.
    coe::ClusterConfig chaos = cluster;
    chaos.dispatch = coe::DispatchPolicy::ExpertAffinity;
    chaos.hotExperts = 0; // the default hot set, numExperts / 10
    useZoo(chaos.node);
    chaos.node.zoo.churnEverySeconds = 30.0;
    chaos.node.expertRegionBytes = 15'600'000'000;
    chaos.node.specDecode.enabled = true;
    chaos.node.specDecode.gamma = 4;
    chaos.node.specDecode.acceptRate = 0.8;
    const double span = requests / chaos.node.arrivalRatePerSec;
    chaos.faults = std::make_shared<std::vector<coe::FaultEvent>>(
        std::vector<coe::FaultEvent>{
            {0.12 * span, coe::FaultKind::DmaStall, 1 % nodes, 4.0,
             0.1 * span},
            {0.30 * span, coe::FaultKind::Straggler, 2 % nodes, 1.3,
             0.1 * span},
            {0.48 * span, coe::FaultKind::NodeCrash, nodes - 1, 1.0,
             0.05 * span},
            {0.66 * span, coe::FaultKind::FlakyNode, 0, 0.02, 0.1 * span},
        });
    chaos.faultPolicy.retryMax = 3;

    return {{"serve", serve, false, true},
            {"prefetch", prefetch, false, false},
            {"cluster", cluster, false, true},
            {"controller", controller, false, false},
            {"fabric", fabric, false, false},
            {"chaos", chaos, true, false}};
}

int
run(int argc, char **argv)
{
    bench::BenchArgs args{400'000, "BENCH_perf.json"};
    int nodes = 4;
    std::string floor_path;
    tools::FlagParser parser(
        "perf_gate", "",
        "Simulator performance gate: a table of passes, each held to\n"
        "the --floor file's events/request ceiling and events/s floor.");
    bench::addBenchFlags(parser, args, 20'000);
    bench::addCountFlag(parser, "--nodes", nodes,
                        "nodes in the cluster passes (default 4)");
    parser.value("--floor", "FILE",
                  "gate against this floor file (bench/perf_gate_floor.json)",
                  [&](const std::string &v) { floor_path = v; });
    if (parser.parse(argc, argv, std::cout))
        return 0;
    const int requests = args.requests;
    // Read before the first pass, so a bad path fails up front.
    std::optional<bench::JsonFile> floor;
    if (!floor_path.empty())
        floor.emplace(floor_path);
    // Ceilings and the re-arm check hold only where they were pinned.
    const bool pinned = floor && nodes == floor->number("nodes") &&
        requests == floor->number("requests");

    double core_eps = coreEventsPerSec(args.smoke ? 500'000 : 5'000'000);
    std::cout << "event core: " << static_cast<std::uint64_t>(core_eps)
              << " events/s (schedule/fire/cancel mix)\n";

    std::vector<Pass> passes = passTable(nodes, requests);
    std::array<double, 5> cold{};
    for (double &c : cold) {
        coe::CostModelCache::instance().clear();
        auto t0 = std::chrono::steady_clock::now();
        coe::ServingSimulator cold_sim(passes.front().cfg.node);
        c = wallSeconds(t0);
    }
    std::sort(cold.begin(), cold.end());
    double cold_setup = cold[cold.size() / 2];
    std::cout << "cold set-up: " << cold_setup << " s (median of "
              << cold.size()
              << " ServingSimulator constructions, cost memo cleared)\n";

    std::ofstream out(args.jsonPath);
    if (!out)
        throw std::runtime_error("cannot write " + args.jsonPath);
    util::JsonWriter w(out, /*pretty=*/true);
    bench::beginBenchJson(w, "perf_gate", args.smoke)
        .field("nodes", nodes)
        .field("requests", requests)
        .field("core_events_per_sec", core_eps)
        .field("cold_setup_s", cold_setup);

    bool failed = false;
    auto fail = [&](const std::string &what) {
        std::cerr << "perf_gate: REGRESSION: " << what << " (from "
                  << floor_path << ")\n";
        failed = true;
    };

    for (const Pass &p : passes) {
        coe::ClusterSimulator sim(p.cfg);
        auto start = std::chrono::steady_clock::now();
        coe::ClusterResult r = sim.run();
        double wall = wallSeconds(start);
        const coe::StreamMetrics &m = r.stream;
        if (r.oom || m.completed + (p.lostAllowed ? m.lost : 0) != requests) {
            std::cerr << "perf_gate: the " << p.name
                      << " pass did not account for every request\n";
            return 1;
        }
        const double events = static_cast<double>(m.eventsExecuted);
        const double eps = wall > 0.0 ? events / wall : 0.0;
        const double epr = events / requests;
        std::cout << p.name << ": " << p.cfg.nodes << " node(s), "
                  << m.eventsExecuted << " events in " << wall << " s, "
                  << epr << " events/request, "
                  << static_cast<std::uint64_t>(eps) << " events/s\n";
        const std::string key = p.name + "_events_per_";
        w.field((p.name + "_events").c_str(), m.eventsExecuted)
            .field((p.name + "_wall_seconds").c_str(), wall)
            .field((key + "sec").c_str(), eps)
            .field((key + "request").c_str(), epr);

        if (p.cfg.node.predictivePrefetch) {
            // On one node every event beyond one per arrival, router
            // decision, batch execution and DMA load is a
            // coe.batch_done that fired early and re-armed.
            auto rearms = static_cast<std::int64_t>(
                events - requests - 2.0 * m.batches -
                sim.stats().get("dma_loads_issued"));
            std::cout << "  " << m.prefetchesIssued << " prefetches, "
                      << rearms << " batch re-arms\n";
            w.field((p.name + "_batch_rearms").c_str(), rearms);
            if (pinned && rearms <= 0)
                fail("the " + p.name + " pass re-armed no batch; it no "
                     "longer exercises the early coe.batch_done path");
        }
        if (p.cfg.fabric.enabled) {
            // Topology-aware dispatch reads link state only on a busy
            // fabric; the idle-route cache and one-candidate picks
            // read none.
            const double lwpr =
                static_cast<double>(r.networkLinkWalks) / requests;
            std::cout << "  " << r.networkLinkWalks << " link walks, "
                      << lwpr << " per request\n";
            w.field((p.name + "_link_walks").c_str(), r.networkLinkWalks)
                .field((p.name + "_link_walks_per_request").c_str(), lwpr);
            if (pinned) {
                double ceiling =
                    floor->number(p.name + "_link_walks_per_request");
                if (lwpr > ceiling)
                    fail(p.name + " " +
                         std::to_string(r.networkLinkWalks) +
                         " link walks > ceiling " +
                         std::to_string(std::llround(ceiling * requests)));
            }
        }
        if (floor && p.wallFloor) {
            double gate = 0.8 * floor->number(key + "sec");
            if (eps < gate)
                fail(p.name + " " + std::to_string(eps) +
                     " events/s < gate " + std::to_string(gate));
        }
        if (pinned) {
            double ceiling = floor->number(key + "request");
            if (epr > ceiling)
                fail(p.name + " " + std::to_string(m.eventsExecuted) +
                     " events > ceiling " +
                     std::to_string(std::llround(ceiling * requests)));
        }
    }
    w.field("peak_rss_bytes", bench::peakRssBytes()).endObject();
    out << "\n";
    std::cout << "wrote " << args.jsonPath << "\n";

    if (floor && !pinned)
        std::cout << "events/request ceilings and the re-arm check "
                     "skipped: they are pinned at the floor's "
                     "nodes/requests\n";
    if (failed)
        return 1;
    if (floor)
        std::cout << "perf gate passed (" << floor_path << ")\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runMain(run, argc, argv);
}

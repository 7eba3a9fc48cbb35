/**
 * @file
 * Cluster-simulation performance harness (not a paper figure):
 * measures how fast the multi-node ClusterSimulator runs, mirroring
 * bench/perf_serving for the single-node engine.
 *
 * Three passes:
 *   1. serial legacy  — least-outstanding dispatch on the shared hub
 *      queue, the historical configuration behind the checked-in
 *      `events_per_sec` floor (unchanged, so the floor stays
 *      comparable across PRs);
 *   2. mesh fabric    — pass 1's workload over a 2-D mesh fabric with
 *      topology-aware dispatch (every request crosses the wire as a
 *      1 MB message). Reports fabric_events_per_request and its wall
 *      time as a multiple of pass 1 (fabric_wall_ratio).
 *   3. spec/zoo chaos — a 2000-adapter LoRA zoo with speculative
 *      decoding, expert-affinity dispatch and a scripted fault
 *      schedule (DMA stall, straggler, crash, flaky node) with
 *      retries. Reports chaos_events_per_request; requests lost to
 *      exhausted retries are allowed, the event count is exact.
 *
 * Workload: Zipf(1.0) over 150 experts, replicate-hot placement,
 * near-saturation open-loop arrivals — the configuration cluster
 * studies sweep.
 *
 * Emits BENCH_cluster.json, stamped with the git commit and UTC
 * timestamp. With --floor FILE, exits non-zero if serial events/sec
 * falls below 80% of the checked-in floor, or if the fabric or
 * spec/zoo chaos pass executes more events per request than the
 * floor's exact ceilings (deterministic, so checked only at the
 * floor's own nodes/requests) — the CI regression gate (see
 * bench/perf_cluster_floor.json).
 *
 *   perf_cluster [--smoke] [--requests N] [--nodes N] [--json FILE]
 *                [--floor FILE]
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include <memory>
#include <vector>

#include "coe/cluster.h"
#include "coe/faults.h"
#include "perf_common.h"
#include "util/json.h"

using namespace sn40l;
using bench::gitCommitHash;
using bench::isoTimestampUtc;
using bench::jsonNumber;
using bench::peakRssBytes;
using bench::wallSeconds;

namespace {

struct PassResult {
    double wall = 0.0;
    coe::ClusterResult result;
};

coe::ClusterConfig
baseConfig(int nodes, int requests)
{
    coe::ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.placement = coe::PlacementPolicy::ReplicateHotPartitionCold;
    cfg.hotExperts = 15;
    cfg.node.mode = coe::ServingMode::EventDriven;
    cfg.node.numExperts = 150;
    cfg.node.batch = 8;
    cfg.node.streamRequests = requests;
    // Near saturation per node so queues stay live without growing
    // unbounded; Zipf routing exercises LRU + dispatch eligibility.
    cfg.node.arrivalRatePerSec = 16.0 * nodes;
    cfg.node.routing = coe::RoutingDistribution::Zipf;
    cfg.node.zipfS = 1.0;
    cfg.node.scheduler = coe::SchedulerPolicy::ExpertAffinity;
    cfg.node.seed = 1;
    return cfg;
}

PassResult
runPass(const coe::ClusterConfig &cfg, int requests, const char *label)
{
    coe::ClusterSimulator sim(cfg);
    auto start = std::chrono::steady_clock::now();
    PassResult pr;
    pr.result = sim.run();
    pr.wall = wallSeconds(start);
    if (pr.result.oom || pr.result.stream.completed != requests) {
        std::cerr << "perf_cluster: " << label
                  << " run did not complete\n";
        std::exit(1);
    }
    return pr;
}

/**
 * Pass 3's workload: baseConfig's arrivals over a 2000-adapter LoRA
 * zoo whose region holds a small share of it (many tiny DMA loads),
 * spec decode, and four faults at fixed shares of the arrival span
 * with up to three retries per request.
 */
coe::ClusterConfig
chaosConfig(int nodes, int requests)
{
    coe::ClusterConfig cfg = baseConfig(nodes, requests);
    cfg.dispatch = coe::DispatchPolicy::ExpertAffinity;
    cfg.hotExperts = 0; // the default hot set, numExperts / 10
    cfg.node.numExperts = 2000;
    cfg.node.zoo.enabled = true;
    cfg.node.zoo.rank = 16;
    cfg.node.zoo.churnEverySeconds = 30.0;
    cfg.node.expertRegionBytes = 15'600'000'000;
    cfg.node.specDecode.enabled = true;
    cfg.node.specDecode.gamma = 4;
    cfg.node.specDecode.acceptRate = 0.8;
    const double span = requests / cfg.node.arrivalRatePerSec;
    const int last = nodes - 1;
    cfg.faults = std::make_shared<std::vector<coe::FaultEvent>>(
        std::vector<coe::FaultEvent>{
            {0.12 * span, coe::FaultKind::DmaStall, 1 % nodes, 4.0,
             0.1 * span},
            {0.30 * span, coe::FaultKind::Straggler, 2 % nodes, 1.3,
             0.1 * span},
            {0.48 * span, coe::FaultKind::NodeCrash, last, 1.0,
             0.05 * span},
            {0.66 * span, coe::FaultKind::FlakyNode, 0, 0.02,
             0.1 * span},
        });
    cfg.faultPolicy.retryMax = 3;
    return cfg;
}

double
eventsPerSec(const PassResult &pr)
{
    return pr.wall > 0.0
        ? static_cast<double>(pr.result.stream.eventsExecuted) / pr.wall
        : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    int requests = 400'000;
    bool requests_set = false;
    int nodes = 4;
    std::string json_path = "BENCH_cluster.json";
    std::string floor_path;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "perf_cluster: " << arg << " expects a value\n";
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--smoke") smoke = true;
        else if (arg == "--requests") {
            requests = std::stoi(next());
            requests_set = true;
        }
        else if (arg == "--nodes") nodes = std::stoi(next());
        else if (arg == "--json") json_path = next();
        else if (arg == "--floor") floor_path = next();
        else {
            std::cerr << "usage: perf_cluster [--smoke] [--requests N] "
                      << "[--nodes N] [--json FILE] [--floor FILE]\n";
            return 1;
        }
    }
    if (smoke && !requests_set)
        requests = 20'000;

    // Pass 1: the historical serial configuration (least-outstanding
    // dispatch, shared hub queue) behind the events_per_sec floor.
    coe::ClusterConfig serial_cfg = baseConfig(nodes, requests);
    serial_cfg.dispatch = coe::DispatchPolicy::LeastOutstanding;
    PassResult serial = runPass(serial_cfg, requests, "serial");
    double serial_eps = eventsPerSec(serial);

    std::cout << "cluster serial: " << nodes << " nodes, " << requests
              << " requests, " << serial.result.stream.eventsExecuted
              << " events in " << serial.wall << " s\n"
              << "  " << static_cast<std::uint64_t>(serial_eps)
              << " events/s, "
              << static_cast<std::uint64_t>(
                     serial.wall > 0.0 ? requests / serial.wall : 0.0)
              << " requests/s, imbalance "
              << serial.result.loadImbalance << "\n";

    // Pass 2: the same workload over a mesh fabric. Event counts are
    // machine-independent, so this pass is gated exactly.
    coe::ClusterConfig mesh_cfg = baseConfig(nodes, requests);
    mesh_cfg.dispatch = coe::DispatchPolicy::TopologyAware;
    mesh_cfg.fabric.enabled = true;
    mesh_cfg.fabric.topology = sim::Topology::Mesh2D;
    PassResult mesh = runPass(mesh_cfg, requests, "mesh fabric");
    double fabric_epr =
        static_cast<double>(mesh.result.stream.eventsExecuted) / requests;
    double fabric_ratio = serial.wall > 0.0 ? mesh.wall / serial.wall : 0.0;
    std::cout << "cluster mesh fabric: " << mesh.result.networkMessages
              << " messages, " << mesh.result.stream.eventsExecuted
              << " events in " << mesh.wall << " s\n"
              << "  " << fabric_epr << " events/request, "
              << fabric_ratio << "x the fabric-off serial wall\n";

    // Pass 3: spec decode + adapter zoo + faults with retries; gated
    // exactly like pass 2.
    coe::ClusterConfig chaos_cfg = chaosConfig(nodes, requests);
    coe::ClusterSimulator chaos_sim(chaos_cfg);
    auto chaos_start = std::chrono::steady_clock::now();
    coe::ClusterResult chaos = chaos_sim.run();
    double chaos_wall = wallSeconds(chaos_start);
    if (chaos.oom ||
        chaos.stream.completed + chaos.stream.lost != requests) {
        std::cerr << "perf_cluster: spec/zoo chaos run did not account "
                     "for every request\n";
        return 1;
    }
    double chaos_epr =
        static_cast<double>(chaos.stream.eventsExecuted) / requests;
    std::cout << "cluster spec/zoo chaos: " << chaos.faultsInjected
              << " faults, " << chaos.stream.retried << " retried, "
              << chaos.stream.lost << " lost, "
              << chaos.stream.eventsExecuted << " events in " << chaos_wall
              << " s\n"
              << "  " << chaos_epr << " events/request\n";

    std::int64_t rss = peakRssBytes();

    std::ofstream out(json_path);
    {
        util::JsonWriter w(out, /*pretty=*/true);
        w.beginObject()
            .field("bench", "perf_cluster")
            .field("git_commit", gitCommitHash())
            .field("timestamp_utc", isoTimestampUtc())
            .field("mode", smoke ? "smoke" : "full")
            .field("nodes", nodes)
            .field("requests", requests)
            .field("wall_seconds", serial.wall)
            .field("events_executed",
                   serial.result.stream.eventsExecuted)
            .field("events_per_sec", serial_eps)
            .field("requests_per_sec",
                   serial.wall > 0.0 ? requests / serial.wall : 0.0)
            .field("load_imbalance", serial.result.loadImbalance)
            .field("fabric_wall_seconds", mesh.wall)
            .field("fabric_events_per_request", fabric_epr)
            .field("fabric_wall_ratio", fabric_ratio)
            .field("chaos_wall_seconds", chaos_wall)
            .field("chaos_events_per_request", chaos_epr)
            .field("peak_rss_bytes", rss)
            .endObject();
        out << "\n";
    }
    std::cout << "wrote " << json_path << "\n";

    if (!floor_path.empty()) {
        double floor =
            jsonNumber("perf_cluster", floor_path, "events_per_sec");
        double gate = 0.8 * floor; // fail on >20% regression vs floor
        if (serial_eps < gate) {
            std::cerr << "perf_cluster: REGRESSION: " << serial_eps
                      << " events/s < gate " << gate << " (floor " << floor
                      << " from " << floor_path << ")\n";
            return 1;
        }
        std::cout << "floor check passed: " << serial_eps
                  << " events/s >= gate " << gate << "\n";
        if (nodes == jsonNumber("perf_cluster", floor_path,
                                "fabric_nodes") &&
            requests == jsonNumber("perf_cluster", floor_path,
                                   "fabric_requests")) {
            double ceiling = jsonNumber("perf_cluster", floor_path,
                                        "fabric_events_per_request");
            if (fabric_epr > ceiling) {
                std::cerr << "perf_cluster: FABRIC REGRESSION: "
                          << fabric_epr << " events/request > ceiling "
                          << ceiling << " (from " << floor_path << ")\n";
                return 1;
            }
            std::cout << "fabric check passed: " << fabric_epr
                      << " events/request <= ceiling " << ceiling << "\n";
            double chaos_ceiling = jsonNumber(
                "perf_cluster", floor_path, "chaos_events_per_request");
            if (chaos_epr > chaos_ceiling) {
                std::cerr << "perf_cluster: SPEC/ZOO CHAOS REGRESSION: "
                          << chaos_epr << " events/request > ceiling "
                          << chaos_ceiling << " (from " << floor_path
                          << ")\n";
                return 1;
            }
            std::cout << "spec/zoo chaos check passed: " << chaos_epr
                      << " events/request <= ceiling " << chaos_ceiling
                      << "\n";
        } else {
            std::cout << "fabric and spec/zoo chaos checks skipped: the "
                         "ceilings are pinned at the floor's "
                         "fabric_nodes/fabric_requests\n";
        }
    }
    return 0;
}

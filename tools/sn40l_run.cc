/**
 * @file
 * sn40l_run: command-line driver for the simulator. Compiles and
 * executes one workload and prints a report; optionally writes a
 * Chrome trace-event timeline.
 *
 *   sn40l_run --model llama2-7b --phase decode --seq 2048 --tp 8 \
 *             [--batch 1] [--config fused-ho|fused-so|unfused] \
 *             [--sockets 8] [--trace out.json]
 *
 * The `serve` subcommand drives the event-driven CoE request-stream
 * scheduler and reports tail latency and throughput; `sweep` shards a
 * Cartesian grid of serve points over a thread pool; `cluster` runs a
 * multi-node serving cluster with pluggable expert placement and
 * request dispatch, scripted mid-run actions (drain/rejoin/rate
 * overrides), an autoscaling control plane (--controller), and a
 * capacity planner (--plan-capacity).
 *
 * Every entry point parses through a FlagParser whose registrations
 * carry each flag's metavar, help line and group, so `--help` is
 * rendered from the table that parses argv. Flags shared between
 * subcommands (workload shape, memory system, arrivals, scenarios,
 * core serving scalars, control plane) are declared once in
 * tools/cli_config.h, so no subcommand copies another's flag handling
 * and unknown-flag errors always name the subcommand they came from.
 * Range checks live in the config validators, which run on the
 * assembled config before anything is printed.
 */

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "coe/cluster.h"
#include "coe/metrics_io.h"
#include "coe/serving.h"
#include "coe/sweep.h"
#include "coe/workload.h"
#include "models/model_zoo.h"
#include "runtime/runner.h"
#include "runtime/trace.h"
#include "util/table.h"

#include "cli_config.h"
#include "flag_parser.h"

using namespace sn40l;
using namespace sn40l::tools;

namespace {

models::LlmConfig
modelByName(const FlagParser &parser, const std::string &name)
{
    using models::LlmConfig;
    static const std::map<std::string, LlmConfig (*)()> zoo = {
        {"llama2-7b", &LlmConfig::llama2_7b},
        {"llama2-13b", &LlmConfig::llama2_13b},
        {"sparsegpt-13b", &LlmConfig::sparseGpt13b},
        {"llama2-70b", &LlmConfig::llama2_70b},
        {"llama3.1-8b", &LlmConfig::llama31_8b},
        {"llama3.1-70b", &LlmConfig::llama31_70b},
        {"llama3.1-405b", &LlmConfig::llama31_405b},
        {"mistral-7b", &LlmConfig::mistral7b},
        {"falcon-40b", &LlmConfig::falcon40b},
        {"bloom-176b", &LlmConfig::bloom176b},
        {"llava1.5-7b", &LlmConfig::llava15_7b},
    };
    auto it = zoo.find(name);
    if (it == zoo.end()) {
        std::string known;
        for (const auto &kv : zoo)
            known += (known.empty() ? "" : ", ") + kv.first;
        parser.fail("unknown --model '" + name + "' (expected " + known +
                    ")");
    }
    return it->second();
}

// ---------------------------------------------------------- serve

int
runServe(int argc, char **argv)
{
    coe::ServingConfig cfg;
    cfg.batch = 8;
    std::string scheduler_name = "both";

    FlagParser parser(
        "sn40l_run", "serve",
        "Event-driven CoE request-stream serving: requests arrive, are\n"
        "continuously batched against the live LRU expert cache, and\n"
        "every expert switch streams DDR->HBM through the platform's\n"
        "DMA engines, contending with decode traffic.");
    addWorkloadFlags(parser, cfg);
    addArrivalFlags(parser, cfg);
    addScenarioFlags(parser, cfg);
    addCoreServingFlags(parser, cfg, scheduler_name);
    addSpecZooFlags(parser, cfg);

    if (parser.parse(argc, argv, std::cout))
        return 0;

    std::vector<coe::SchedulerPolicy> policies;
    if (scheduler_name == "both") {
        // Sessions and SLO shedding feed completions back into the
        // arrival stream, so the two schedulers emit different
        // traffic — recording "both" would silently keep only the
        // last run's trace.
        if (!cfg.workload.traceOut.empty())
            parser.fail("--trace-out records one run; pick a single "
                        "--scheduler (fifo or affinity)");
        policies = {coe::SchedulerPolicy::Fifo,
                    coe::SchedulerPolicy::ExpertAffinity};
    } else {
        policies = {coe::schedulerPolicyFromName(scheduler_name)};
    }
    coe::validateServingConfig(cfg);
    loadTraceOnce(cfg.workload);
    requireWritable(parser, {cfg.workload.traceOut});

    std::cout << "CoE request stream on " << coe::platformName(cfg.platform)
              << ": " << cfg.numExperts << " experts, "
              << (cfg.arrival == coe::ArrivalProcess::Poisson
                      ? "open-loop Poisson "
                      : "closed-loop ")
              << (cfg.arrival == coe::ArrivalProcess::Poisson
                      ? util::formatDouble(cfg.arrivalRatePerSec, 1) +
                            " req/s"
                      : std::to_string(cfg.clients) + " clients")
              << ", " << cfg.streamRequests << " requests, max batch "
              << cfg.batch << ", "
              << coe::routingDistributionName(cfg.routing)
              << " routing\n\n";

    util::Table table({"Scheduler", "p50", "p95", "p99", "Throughput",
                       "Tokens/s", "Miss rate", "Miss-stall p95",
                       "Queue depth", "Batch occupancy"});
    std::vector<std::string> prefetch_lines;
    std::vector<std::string> shed_lines;
    std::vector<std::string> spec_lines;
    for (coe::SchedulerPolicy policy : policies) {
        cfg.scheduler = policy;
        coe::ServingSimulator sim(cfg);
        coe::ServingResult r = sim.run();
        if (r.oom) {
            table.addRow({coe::schedulerPolicyName(policy), "-", "-", "-",
                          "OUT OF MEMORY"});
            continue;
        }
        const coe::StreamMetrics &m = r.stream;
        if (m.shed > 0 || cfg.workload.sloSeconds > 0.0) {
            shed_lines.push_back(
                std::string(coe::schedulerPolicyName(policy)) + ": " +
                std::to_string(m.shed) + " shed (" +
                util::formatDouble(m.shedRate * 100, 1) +
                "% of arrivals)");
        }
        if (cfg.predictivePrefetch) {
            prefetch_lines.push_back(
                std::string(coe::schedulerPolicyName(policy)) + ": " +
                std::to_string(m.prefetchesIssued) + " issued, " +
                std::to_string(m.prefetchHits) + " hit by a batch, " +
                std::to_string(m.prefetchesCancelled) +
                " cancelled under eviction pressure");
        }
        if (cfg.specDecode.enabled) {
            spec_lines.push_back(
                std::string(coe::schedulerPolicyName(policy)) + ": " +
                std::to_string(m.specSteps) + " draft/verify steps, " +
                util::formatDouble(m.specTokensPerStep, 2) +
                " accepted tokens/step (gamma " +
                std::to_string(cfg.specDecode.gamma) + ", accept " +
                util::formatDouble(cfg.specDecode.acceptRate, 2) + ")");
        }
        table.addRow({coe::schedulerPolicyName(policy),
                      util::formatSeconds(m.p50LatencySeconds),
                      util::formatSeconds(m.p95LatencySeconds),
                      util::formatSeconds(m.p99LatencySeconds),
                      util::formatDouble(m.throughputRequestsPerSec, 2) +
                          " req/s",
                      util::formatDouble(m.throughputTokensPerSec, 1),
                      util::formatDouble(r.missRate * 100, 1) + "%",
                      util::formatSeconds(m.p95SwitchStallSeconds),
                      util::formatDouble(m.meanQueueDepth, 1) + " avg / " +
                          util::formatDouble(m.maxQueueDepth, 0) + " max",
                      util::formatDouble(m.meanBatchOccupancy, 2)});
    }
    table.print(std::cout);
    if (!prefetch_lines.empty()) {
        std::cout << "\nSpeculative prefetch:\n";
        for (const std::string &line : prefetch_lines)
            std::cout << "  " << line << "\n";
    }
    if (!shed_lines.empty()) {
        std::cout << "\nSLO admission control:\n";
        for (const std::string &line : shed_lines)
            std::cout << "  " << line << "\n";
    }
    if (!spec_lines.empty()) {
        std::cout << "\nSpeculative decoding:\n";
        for (const std::string &line : spec_lines)
            std::cout << "  " << line << "\n";
    }
    if (!cfg.workload.traceOut.empty())
        std::cout << "\nwrote request trace to " << cfg.workload.traceOut
                  << "\n";
    return 0;
}

// ---------------------------------------------------------- sweep

int
runSweepCmd(int argc, char **argv)
{
    coe::SweepGrid grid;
    grid.base.batch = 8;
    grid.base.arrivalRatePerSec = 8.0;
    std::string scheduler_name = "both";
    std::string json_path, faults_path;
    int jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0)
        jobs = 1;

    FlagParser parser(
        "sn40l_run", "sweep",
        "Cartesian sweep of event-driven serving points (nodes x\n"
        "placements x experts x arrival rates x batch sizes x\n"
        "schedulers x seeds), sharded across a thread pool. Every\n"
        "point is an independent deterministic simulation with its\n"
        "own event queue, so `-j N` produces bit-identical per-point\n"
        "results to `-j 1`. The other flags mean what they mean under\n"
        "`serve` and apply to every point.");
    parser.group("Sweep axes (comma-separated lists)");
    parser.value("--experts", "LIST", "experts in the zoo (default 150)",
                 [&](const std::string &v) {
                     grid.expertCounts = parseList<int>(parser, v, &parseInt);
                 });
    parser.value("--arrival-rate", "LIST", "req/s per node (default 8)",
                 [&](const std::string &v) {
                     grid.arrivalRates =
                         parseList<double>(parser, v, &parseDouble);
                 });
    parser.value("--batch", "LIST", "max prompts per batch (default 8)",
                 [&](const std::string &v) {
                     grid.batchSizes = parseList<int>(parser, v, &parseInt);
                 });
    parser.value("--seeds", "LIST", "RNG seeds (default 1)",
                 [&](const std::string &v) {
                     grid.seeds =
                         parseList<std::uint64_t>(parser, v, &parseUint64);
                 });
    parser.value("--nodes", "LIST",
                 "cluster sizes (default: single-node serving)",
                 [&](const std::string &v) {
                     grid.nodeCounts = parseList<int>(parser, v, &parseInt);
                 });
    parser.value("--placement", "LIST",
                 "replication | replicate-hot | partition (needs --nodes)",
                 [&](const std::string &v) {
                     grid.placements = parseList<coe::PlacementPolicy>(
                         parser, v, &coe::placementPolicyFromName);
                 });
    parser.value("--dispatch", "D",
                 "dispatch policy of the cluster points (needs --nodes)",
                 [&](const std::string &v) {
                     grid.dispatch = coe::dispatchPolicyFromName(v);
                 });
    // Ahead of the scenario group's check, which would otherwise
    // report the rate axis as a workload-generator flag.
    parser.check([&] {
        if (!grid.base.workload.traceIn.empty() &&
            !grid.arrivalRates.empty())
            parser.fail("--trace-in fixes the arrival stream; an "
                        "--arrival-rate axis does not apply");
    });
    addSchedulerFlag(parser, scheduler_name);
    addWorkloadFlags(parser, grid.base);
    addScenarioFlags(parser, grid.base);
    addSpecZooFlags(parser, grid.base);
    addFaultFlags(parser, grid.faultPolicy, faults_path, grid.base);
    parser.group("Execution");
    parser.value("-j, --jobs", "N",
                 "worker threads (default: hardware concurrency)",
                 [&](const std::string &v) { jobs = parseInt(v); });
    parser.value("--json", "FILE", "write per-point metrics as JSON",
                 [&](const std::string &v) { json_path = v; });

    if (parser.parse(argc, argv, std::cout))
        return 0;
    bool faults = parser.given("--faults");
    if ((faults || grid.faultPolicy.anyEnabled()) &&
        grid.nodeCounts.empty())
        parser.fail("--faults and the degraded-mode flags act on the "
                    "cluster dispatch layer; they require --nodes");
    if (faults) {
        // Parse once; every grid point (and worker thread) replays the
        // same immutable schedule, mirroring the --trace-in pattern.
        grid.faults =
            std::make_shared<const std::vector<coe::FaultEvent>>(
                coe::loadFaultSchedule(faults_path));
    }
    if (!grid.base.workload.traceOut.empty())
        parser.fail("--trace-out is ambiguous across sweep points; "
                    "record a trace with `serve` or `cluster` and "
                    "replay it here with --trace-in");
    if (anyGiven(parser, {"--placement", "--dispatch"}) &&
        grid.nodeCounts.empty())
        parser.fail("--placement/--dispatch require --nodes");
    // No config field behind --jobs: this is its only check.
    if (jobs <= 0)
        parser.fail("--jobs must be at least 1");
    loadTraceOnce(grid.base.workload);

    if (scheduler_name == "both") {
        grid.policies = {coe::SchedulerPolicy::Fifo,
                         coe::SchedulerPolicy::ExpertAffinity};
    } else {
        grid.policies = {coe::schedulerPolicyFromName(scheduler_name)};
    }

    std::vector<coe::SweepPoint> points = grid.points();
    for (const coe::SweepPoint &point : points)
        coe::validateSweepPoint(point);
    requireWritable(parser, {json_path});
    std::cout << "CoE sweep on " << coe::platformName(grid.base.platform)
              << ": " << points.size() << " points x "
              << grid.base.streamRequests << " requests, " << jobs
              << " worker thread" << (jobs == 1 ? "" : "s") << "\n\n";

    auto start = std::chrono::steady_clock::now();
    std::vector<coe::SweepPointResult> results =
        coe::runSweep(points, jobs);
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();

    bool clustered = !grid.nodeCounts.empty();
    std::vector<std::string> header = {"Experts", "Rate", "Batch",
                                       "Sched", "Seed"};
    if (clustered) {
        header.insert(header.begin(), "Placement");
        header.insert(header.begin(), "Nodes");
    }
    for (const char *col : {"p50", "p95", "p99", "Throughput",
                            "Miss rate", "Events"})
        header.push_back(col);
    if (clustered)
        header.push_back("Imbalance");
    util::Table table(header);

    std::uint64_t total_events = 0;
    for (const coe::SweepPointResult &r : results) {
        const coe::ServingConfig &cfg = r.point.cfg;
        std::vector<std::string> row;
        if (clustered) {
            row.push_back(std::to_string(r.point.nodes));
            row.push_back(coe::placementPolicyName(r.point.placement));
        }
        row.push_back(std::to_string(cfg.numExperts));
        // The per-node rate the grid asked for, not the node-scaled
        // total — points stay comparable across node counts.
        row.push_back(util::formatDouble(r.point.ratePerNode, 1));
        row.push_back(std::to_string(cfg.batch));
        row.push_back(coe::schedulerPolicyName(cfg.scheduler));
        row.push_back(std::to_string(cfg.seed));
        if (r.result.oom) {
            row.insert(row.end(), {"-", "-", "-", "OUT OF MEMORY", "-",
                                   "-"});
            if (clustered)
                row.push_back("-");
            table.addRow(row);
            continue;
        }
        const coe::StreamMetrics &m = r.result.stream;
        total_events += r.eventsExecuted;
        row.push_back(util::formatSeconds(m.p50LatencySeconds));
        row.push_back(util::formatSeconds(m.p95LatencySeconds));
        row.push_back(util::formatSeconds(m.p99LatencySeconds));
        row.push_back(util::formatDouble(m.throughputRequestsPerSec, 2) +
                      " req/s");
        row.push_back(util::formatDouble(r.result.missRate * 100, 1) +
                      "%");
        row.push_back(std::to_string(r.eventsExecuted));
        if (clustered)
            row.push_back(util::formatDouble(r.loadImbalance, 2) + "x");
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n" << points.size() << " points, " << total_events
              << " simulator events in " << util::formatDouble(wall, 2)
              << " s ("
              << util::formatDouble(
                     wall > 0.0 ? static_cast<double>(total_events) / wall
                                : 0.0,
                     0)
              << " events/s across " << jobs << " threads)\n";

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out)
            parser.fail("cannot write " + json_path);
        coe::writeSweepJson(out, results, jobs, wall);
        std::cout << "wrote " << json_path << "\n";
    }
    return 0;
}

// -------------------------------------------------------- cluster

/**
 * Capacity planner: re-run the demand against growing static
 * clusters and report the smallest node count meeting the p95 and
 * shed targets. Exits non-zero when nothing up to the ceiling does.
 */
int
runPlanCapacity(const FlagParser &parser, coe::ClusterConfig cfg,
                const PlanFlagState &plan)
{
    if (cfg.node.arrival == coe::ArrivalProcess::ClosedLoop)
        parser.fail("--plan-capacity sizes for offered load; "
                    "closed-loop demand self-paces, drop "
                    "--closed-loop");
    if (!parser.given("--arrival-rate") &&
        cfg.node.workload.traceIn.empty())
        parser.fail("--plan-capacity needs the demand pinned: give an "
                    "explicit --arrival-rate or a --trace-in trace "
                    "(the default rate scales with the node count)");
    if (!cfg.overrides.empty())
        parser.fail("--plan-capacity varies the node count; per-node "
                    "override lists do not apply");
    if (!cfg.actions.empty())
        parser.fail("--plan-capacity runs clean static clusters; drop "
                    "--drain-at/--schedule");
    if (cfg.controller.policy != coe::ControllerPolicy::Static)
        parser.fail("--plan-capacity provisions statically; drop "
                    "--controller");
    if (!cfg.node.workload.traceOut.empty())
        parser.fail("--plan-capacity runs the demand several times; "
                    "--trace-out is ambiguous");

    int max_nodes =
        parser.given("--plan-max-nodes") ? plan.maxNodes : cfg.nodes;

    std::cout << "Capacity plan: smallest cluster meeting p95 <= "
              << util::formatDouble(plan.p95Ms, 1) << " ms, shed <= "
              << util::formatDouble(plan.maxShedPct, 1) << "% over "
              << (cfg.node.workload.replay()
                      ? "the replayed trace"
                      : util::formatDouble(cfg.node.arrivalRatePerSec,
                                           1) +
                            " req/s")
              << " (" << cfg.node.streamRequests << " requests, up to "
              << max_nodes << " nodes)\n\n";

    util::Table table(
        {"Nodes", "p95", "Shed", "Node-hours", "Verdict"});
    int chosen = -1;
    coe::ClusterResult chosen_result;
    for (int n = 1; n <= max_nodes; ++n) {
        coe::ClusterConfig pc = cfg;
        pc.nodes = n;
        coe::ClusterSimulator sim(pc);
        coe::ClusterResult r = sim.run();
        if (r.oom) {
            table.addRow({std::to_string(n), "-", "-", "-",
                          "OUT OF MEMORY"});
            continue;
        }
        double p95_ms = r.stream.p95LatencySeconds * 1000.0;
        double shed_pct = r.stream.shedRate * 100.0;
        bool met = p95_ms <= plan.p95Ms && shed_pct <= plan.maxShedPct;
        table.addRow({std::to_string(n),
                      util::formatSeconds(r.stream.p95LatencySeconds),
                      util::formatDouble(shed_pct, 1) + "%",
                      util::formatDouble(r.nodeHours, 3),
                      met ? "meets SLO" : "misses SLO"});
        if (met) {
            chosen = n;
            chosen_result = r;
            break; // more nodes only cost more
        }
    }
    table.print(std::cout);

    if (chosen < 0) {
        std::cout << "\nno node count up to " << max_nodes
                  << " meets the targets; raise --plan-max-nodes or "
                  << "relax the SLO\n";
        return 1;
    }
    std::cout << "\nPlan: " << chosen << " node"
              << (chosen == 1 ? "" : "s") << " ("
              << util::formatDouble(chosen_result.nodeHours, 3)
              << " node-hours, p95 "
              << util::formatSeconds(
                     chosen_result.stream.p95LatencySeconds)
              << ", "
              << util::formatDouble(chosen_result.stream.shedRate * 100,
                                    1)
              << "% shed)\n";
    return 0;
}

int
runClusterCmd(int argc, char **argv)
{
    coe::ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.placement = coe::PlacementPolicy::ReplicateHotPartitionCold;
    cfg.dispatch = coe::DispatchPolicy::LeastOutstanding;
    cfg.node.batch = 8;
    cfg.node.scheduler = coe::SchedulerPolicy::ExpertAffinity;
    std::string scheduler_name = "affinity";

    FlagParser parser(
        "sn40l_run", "cluster",
        "Multi-node CoE serving cluster: N per-node serving stacks\n"
        "(each its own LRU expert cache and DMA memory system) fronted\n"
        "by a cluster router with pluggable expert placement and\n"
        "request dispatch. Supports scripted mid-run actions\n"
        "(drain/rejoin/rate overrides), a diurnal arrival ramp, an\n"
        "autoscaling control plane, capacity planning, an event-driven\n"
        "interconnect, and fault injection. The workload flags mean\n"
        "what they mean under `serve`.");
    double drain_at = 0.0, rejoin_at = 0.0;
    int drain_node = 0;
    std::vector<int> node_dma;
    std::vector<double> node_region_gb;
    std::string schedule_csv, json_path, faults_path;
    PlanFlagState plan;

    parser.group("Cluster");
    parser.value("--nodes", "N", "nodes in the cluster (default 4)",
                 [&](const std::string &v) { cfg.nodes = parseInt(v); });
    parser.value("--placement", "P",
                 "replication | replicate-hot | partition (default "
                 "replicate-hot)",
                 [&](const std::string &v) {
                     cfg.placement = coe::placementPolicyFromName(v);
                 });
    parser.value("--hot-experts", "N",
                 "hot head size for replicate-hot (default experts/10)",
                 [&](const std::string &v) { cfg.hotExperts = parseInt(v); });
    parser.value("--dispatch", "D",
                 "round-robin | least-outstanding | expert-affinity | "
                 "topo-aware (default least-outstanding)",
                 [&](const std::string &v) {
                     cfg.dispatch = coe::dispatchPolicyFromName(v);
                 });
    addFabricFlags(parser, cfg.fabric);
    parser.group("Scenarios");
    // Stricter than ScheduledAction::atSeconds: a drain at 0 is no
    // mid-run drain.
    parser.value("--drain-at", "SEC",
                 "drain a node mid-run; its queue re-dispatches",
                 [&](const std::string &v) { drain_at = parseDouble(v); });
    parser.value("--drain-node", "N", "which node drains (default 0)",
                 [&](const std::string &v) { drain_node = parseInt(v); });
    parser.value("--rejoin-at", "SEC", "the drained node rejoins cold",
                 [&](const std::string &v) { rejoin_at = parseDouble(v); });
    parser.value("--schedule", "LIST",
                 "KIND:AT[:ARG] actions, KIND drain|rejoin|rate, e.g. "
                 "drain:3:1,rate:12:0.5",
                 [&](const std::string &v) { schedule_csv = v; });
    parser.value("--diurnal-amplitude", "A",
                 "sinusoidal ramp on the Poisson rate, in [0, 1)",
                 [&](const std::string &v) {
                     cfg.diurnalAmplitude = parseDouble(v);
                 });
    parser.value("--diurnal-period", "SEC", "ramp period (default 86400)",
                 [&](const std::string &v) {
                     cfg.diurnalPeriodSeconds = parseDouble(v);
                 });
    parser.value("--node-dma-engines", "LIST",
                 "per-node DMA engine counts (length --nodes)",
                 [&](const std::string &v) {
                     node_dma = parseList<int>(parser, v, &parseInt);
                 });
    parser.value("--node-region-gb", "LIST",
                 "per-node expert-region GB (length --nodes)",
                 [&](const std::string &v) {
                     node_region_gb =
                         parseList<double>(parser, v, &parseDouble);
                 });
    addControllerFlags(parser, cfg.controller);
    addPlanFlags(parser, plan);
    addFaultFlags(parser, cfg.faultPolicy, faults_path, cfg.node);
    parser.group("Output");
    parser.value("--json", "FILE", "write the cluster result as JSON",
                 [&](const std::string &v) { json_path = v; });
    addWorkloadFlags(parser, cfg.node);
    addArrivalFlags(parser, cfg.node);
    addScenarioFlags(parser, cfg.node);
    addCoreServingFlags(parser, cfg.node, scheduler_name);
    addSpecZooFlags(parser, cfg.node);

    if (parser.parse(argc, argv, std::cout))
        return 0;
    if (cfg.dispatch == coe::DispatchPolicy::TopologyAware &&
        !cfg.fabric.enabled)
        parser.fail("--dispatch topo-aware routes around fabric congestion; "
                    "it requires --topology");
    // The diurnal ramp shapes the arrival generator, which a replay
    // bypasses entirely — reject it like the other generator flags
    // instead of silently replaying the flat recorded stream.
    bool diurnal_amp = parser.given("--diurnal-amplitude");
    if (!cfg.node.workload.traceIn.empty() &&
        (diurnal_amp || parser.given("--diurnal-period")))
        parser.fail("--trace-in replays a recorded request stream; "
                    "--diurnal-amplitude/--diurnal-period do not "
                    "apply");

    if (scheduler_name == "both")
        parser.fail("cluster runs a single scheduler; pick fifo or "
                    "affinity");
    cfg.node.scheduler = coe::schedulerPolicyFromName(scheduler_name);
    if (parser.given("--hot-experts") &&
        cfg.placement != coe::PlacementPolicy::ReplicateHotPartitionCold)
        parser.fail("--hot-experts requires --placement replicate-hot");
    bool drain = parser.given("--drain-at");
    bool rejoin = parser.given("--rejoin-at");
    // Written so NaN fails too: every comparison with NaN is false.
    if (drain && !(drain_at > 0.0))
        parser.fail("--drain-at must be positive (the drain fires "
                    "mid-run)");
    if ((parser.given("--drain-node") || rejoin) && !drain)
        parser.fail("--drain-node/--rejoin-at require --drain-at");
    if (rejoin && !(rejoin_at > drain_at))
        parser.fail("--rejoin-at must come after --drain-at");
    if (parser.given("--diurnal-period") && !diurnal_amp)
        parser.fail("--diurnal-period requires --diurnal-amplitude");
    // --drain-at/--drain-node/--rejoin-at alias a drain (and a cold
    // rejoin) of one node, fired ahead of the --schedule entries.
    if (drain)
        cfg.actions.push_back(
            {drain_at, coe::ActionKind::Drain, drain_node});
    if (rejoin)
        cfg.actions.push_back(
            {rejoin_at, coe::ActionKind::Rejoin, drain_node});
    std::vector<coe::ScheduledAction> scheduled;
    if (!schedule_csv.empty())
        scheduled = parseScheduleList(parser, schedule_csv);
    cfg.actions.insert(cfg.actions.end(), scheduled.begin(),
                       scheduled.end());
    if (!node_dma.empty() &&
        static_cast<int>(node_dma.size()) != cfg.nodes)
        parser.fail("--node-dma-engines needs exactly --nodes entries");
    if (!node_region_gb.empty() &&
        static_cast<int>(node_region_gb.size()) != cfg.nodes)
        parser.fail("--node-region-gb needs exactly --nodes entries");
    for (int n = 0; n < cfg.nodes; ++n) {
        coe::ClusterNodeOverride o;
        o.node = n;
        if (!node_dma.empty())
            o.dmaEngines = node_dma[static_cast<std::size_t>(n)];
        if (!node_region_gb.empty())
            o.expertRegionBytes =
                regionBytes(parser, "--node-region-gb entries",
                            node_region_gb[static_cast<std::size_t>(n)]);
        // Every entry reaches validateClusterConfig (0 inherits).
        if (!node_dma.empty() || !node_region_gb.empty())
            cfg.overrides.push_back(o);
    }
    // Without --arrival-rate the open-loop default scales with the
    // cluster size.
    if (!parser.given("--arrival-rate") &&
        cfg.node.arrival == coe::ArrivalProcess::Poisson)
        cfg.node.arrivalRatePerSec = 8.0 * cfg.nodes;
    bool faults = parser.given("--faults");
    if (faults) {
        // Parse (and strictly validate) once; validateClusterConfig
        // checks it against the node count.
        cfg.faults =
            std::make_shared<const std::vector<coe::FaultEvent>>(
                coe::loadFaultSchedule(faults_path));
    }
    coe::validateClusterConfig(cfg);
    loadTraceOnce(cfg.node.workload);

    if (parser.given("--plan-capacity")) {
        if (!json_path.empty())
            parser.fail("--json reports a single cluster run; it does "
                        "not combine with --plan-capacity");
        if (faults || cfg.faultPolicy.anyEnabled())
            parser.fail("--plan-capacity sizes clean static clusters; "
                        "drop --faults and the degraded-mode flags");
        return runPlanCapacity(parser, cfg, plan);
    }
    requireWritable(parser, {json_path, cfg.node.workload.traceOut,
                             cfg.controller.logPath});

    std::cout << "CoE cluster on "
              << coe::platformName(cfg.node.platform) << ": "
              << cfg.nodes << " nodes, " << cfg.node.numExperts
              << " experts, placement "
              << coe::placementPolicyName(cfg.placement) << ", dispatch "
              << coe::dispatchPolicyName(cfg.dispatch) << ", "
              << (cfg.node.arrival == coe::ArrivalProcess::Poisson
                      ? "open-loop " +
                            util::formatDouble(cfg.node.arrivalRatePerSec,
                                               1) +
                            " req/s"
                      : "closed-loop " + std::to_string(cfg.node.clients) +
                            " clients")
              << (cfg.diurnalAmplitude > 0.0
                      ? " (diurnal x" +
                            util::formatDouble(1.0 + cfg.diurnalAmplitude,
                                               2) +
                            " peak)"
                      : "")
              << ", " << cfg.node.streamRequests << " requests, "
              << coe::routingDistributionName(cfg.node.routing)
              << " routing"
              << (cfg.controller.policy != coe::ControllerPolicy::Static
                      ? std::string(", controller ") +
                            coe::controllerPolicyName(
                                cfg.controller.policy)
                      : "")
              << (cfg.fabric.enabled
                      ? std::string(", fabric ") +
                            sim::topologyName(cfg.fabric.topology) +
                            " (" +
                            util::formatDouble(cfg.fabric.linkGbps, 0) +
                            " Gb/s links, " +
                            util::formatDouble(cfg.fabric.linkLatencyUs,
                                               1) +
                            " us)"
                      : "")
              << "\n\n";

    coe::ClusterSimulator sim(cfg);
    coe::ClusterResult r = sim.run();
    if (r.oom) {
        std::cout << "OUT OF MEMORY: a node's placed experts exceed its "
                  << "backing capacity\n";
        return 1;
    }

    util::Table table({"Node", "Placed", "Dispatched", "Completed",
                       "Shed", "Batches", "Miss rate", "p50", "p95",
                       "Queue depth", "Peak HBM"});
    for (const coe::ClusterNodeMetrics &nm : r.nodes) {
        table.addRow({std::to_string(nm.node) +
                          (nm.drained ? " (drained)" : ""),
                      std::to_string(nm.placedExperts),
                      std::to_string(nm.dispatched),
                      std::to_string(nm.completed),
                      std::to_string(nm.shed),
                      std::to_string(nm.batches),
                      util::formatDouble(nm.missRate * 100, 1) + "%",
                      util::formatSeconds(nm.p50LatencySeconds),
                      util::formatSeconds(nm.p95LatencySeconds),
                      util::formatDouble(nm.meanQueueDepth, 1) +
                          " avg / " +
                          util::formatDouble(nm.maxQueueDepth, 0) +
                          " max",
                      util::formatBytes(static_cast<double>(
                          nm.peakResidentBytes))});
    }
    table.print(std::cout);

    const coe::StreamMetrics &m = r.stream;
    std::cout << "\nCluster: p50 "
              << util::formatSeconds(m.p50LatencySeconds) << ", p95 "
              << util::formatSeconds(m.p95LatencySeconds) << ", p99 "
              << util::formatSeconds(m.p99LatencySeconds) << ", "
              << util::formatDouble(m.throughputRequestsPerSec, 2)
              << " req/s, miss rate "
              << util::formatDouble(r.missRate * 100, 1)
              << "%, load imbalance "
              << util::formatDouble(r.loadImbalance, 2) << "x";
    if (m.shed > 0 || cfg.node.workload.sloSeconds > 0.0)
        std::cout << ", " << m.shed << " shed ("
                  << util::formatDouble(m.shedRate * 100, 1)
                  << "% of arrivals)";
    std::cout << "\n";
    std::cout << "Placement: " << r.expertReplicas << " expert replicas, "
              << util::formatBytes(r.placedBytesTotal) << " placed, "
              << util::formatBytes(
                     static_cast<double>(r.peakResidentBytesTotal))
              << " peak resident HBM\n";
    std::cout << "Provisioning: "
              << util::formatDouble(r.nodeHours, 3) << " node-hours ("
              << util::formatDouble(r.nodeSecondsLive, 1)
              << " node-seconds live)\n";
    if (cfg.controller.policy != coe::ControllerPolicy::Static) {
        std::cout << "Controller: "
                  << coe::controllerPolicyName(cfg.controller.policy)
                  << ", " << r.controllerTicks << " ticks, "
                  << r.controllerActions << " actions";
        if (!cfg.controller.logPath.empty())
            std::cout << ", log " << cfg.controller.logPath;
        std::cout << "\n";
    }
    if (cfg.fabric.enabled) {
        std::cout << "Interconnect: "
                  << sim::topologyName(cfg.fabric.topology) << ", "
                  << r.networkMessages << " messages ("
                  << r.networkFlits << " flits), "
                  << r.networkCreditStalls << " credit stalls, link "
                  << "utilization "
                  << util::formatDouble(
                         r.networkMeanLinkUtilization * 100, 1)
                  << "% mean / "
                  << util::formatDouble(
                         r.networkMaxLinkUtilization * 100, 1)
                  << "% max\n";
    }
    if (cfg.faults || cfg.faultPolicy.anyEnabled()) {
        std::cout << "Chaos: " << r.faultsInjected
                  << " faults injected (" << r.crashes << " crash"
                  << (r.crashes == 1 ? "" : "es") << "), " << m.lost
                  << " lost, " << m.retried << " retried, " << m.hedged
                  << " hedged (" << m.hedgeWon << " hedge win"
                  << (m.hedgeWon == 1 ? "" : "s") << ")\n";
    }
    if (!scheduled.empty())
        std::cout << "Schedule: " << scheduled.size() << " scripted action"
                  << (scheduled.size() == 1 ? "" : "s") << " applied, "
                  << r.redispatched << " requests re-dispatched\n";
    if (drain) {
        std::cout << "Drain: node " << drain_node << " drained at "
                  << util::formatDouble(drain_at, 1) << " s, "
                  << r.redispatched << " queued requests re-dispatched"
                  << (rejoin ? ", rejoined cold at " +
                                   util::formatDouble(rejoin_at, 1) + " s"
                             : ", no rejoin")
                  << "\n";
    }
    if (!cfg.node.workload.traceOut.empty())
        std::cout << "wrote request trace to "
                  << cfg.node.workload.traceOut << "\n";
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out)
            parser.fail("cannot write " + json_path);
        coe::writeClusterJson(out, cfg, r);
        std::cout << "wrote " << json_path << "\n";
    }
    return 0;
}

} // namespace

int
run(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
        return runServe(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "sweep") == 0)
        return runSweepCmd(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "cluster") == 0)
        return runClusterCmd(argc, argv);

    std::string model_name = "llama2-7b";
    std::string phase_name = "decode";
    std::string config_name = "fused-ho";
    std::string trace_path;
    int seq = 2048, batch = 1, tp = 8, sockets = 8;

    FlagParser parser(
        "sn40l_run", "",
        "Compile and execute one workload on an SN40L node and print a\n"
        "report. Subcommands, each with its own --help:\n"
        "  sn40l_run serve [flags]    single-node event-driven serving\n"
        "  sn40l_run sweep [flags]    cartesian sweep across threads\n"
        "  sn40l_run cluster [flags]  multi-node cluster serving");
    parser.group("Workload");
    parser.value("--model", "NAME", "model from the zoo (default llama2-7b)",
                 [&](const std::string &v) { model_name = v; });
    parser.value("--phase", "P", "prefill | decode | train (default decode)",
                 [&](const std::string &v) { phase_name = v; });
    parser.value("--seq", "N", "sequence length (default 2048)",
                 [&](const std::string &v) { seq = parseInt(v); });
    parser.value("--batch", "N", "batch size (default 1)",
                 [&](const std::string &v) { batch = parseInt(v); });
    parser.value("--tp", "N", "tensor parallelism (default 8)",
                 [&](const std::string &v) { tp = parseInt(v); });
    parser.value("--sockets", "N", "sockets in the node (default 8)",
                 [&](const std::string &v) { sockets = parseInt(v); });
    parser.value("--config", "C", "fused-ho | fused-so | unfused "
                 "(default fused-ho)",
                 [&](const std::string &v) { config_name = v; });
    parser.group("Output");
    parser.value("--trace", "FILE", "write a Chrome trace-event timeline",
                 [&](const std::string &v) { trace_path = v; });
    if (parser.parse(argc, argv, std::cout))
        return 0;

    models::WorkloadSpec spec;
    spec.model = modelByName(parser, model_name);
    spec.seqLen = seq;
    spec.batch = batch;
    spec.tensorParallel = tp;
    if (phase_name == "prefill") spec.phase = models::Phase::Prefill;
    else if (phase_name == "decode") spec.phase = models::Phase::Decode;
    else if (phase_name == "train") spec.phase = models::Phase::Train;
    else parser.fail("unknown --phase '" + phase_name +
                     "' (expected prefill, decode, or train)");

    runtime::RunConfig config;
    if (config_name == "fused-ho") config = runtime::RunConfig::FusedHO;
    else if (config_name == "fused-so")
        config = runtime::RunConfig::FusedSO;
    else if (config_name == "unfused")
        config = runtime::RunConfig::Unfused;
    else parser.fail("unknown --config '" + config_name +
                     "' (expected fused-ho, fused-so, or unfused)");

    graph::DataflowGraph g = models::buildTransformer(spec);
    arch::NodeConfig node_cfg = arch::NodeConfig::sn40lNode(sockets);
    requireWritable(parser, {trace_path});

    runtime::TraceWriter trace;
    runtime::RunOutcome outcome = runtime::runWorkload(
        g, node_cfg, tp, config, trace_path.empty() ? nullptr : &trace);
    const compiler::Program &prog = outcome.program;
    const runtime::ExecutionResult &result = outcome.result;

    util::Table report({"Quantity", "Value"});
    report.addRow({"Workload", spec.str()});
    report.addRow({"Config", runtime::runConfigName(config)});
    report.addRow({"Sockets", std::to_string(sockets) +
                                  " (TP" + std::to_string(tp) + ")"});
    report.addRow({"Graph ops", std::to_string(g.numOps())});
    report.addRow({"FLOPs", util::formatDouble(g.totalFlops() / 1e12, 2) +
                                " TFLOP"});
    report.addRow({"Weights", util::formatBytes(g.weightBytes())});
    report.addRow({"Kernels", std::to_string(prog.kernels.size())});
    report.addRow({"Launches", std::to_string(prog.totalLaunches)});
    report.addRow({"HBM resident/socket",
                   util::formatBytes(prog.hbmResidentBytes)});
    report.addRow({"DDR spill/socket",
                   util::formatBytes(prog.ddrResidentBytes)});
    report.addRow({"Total time", util::formatSeconds(result.seconds())});
    report.addRow({"  launch overhead",
                   util::formatSeconds(result.launchSeconds())});
    report.addRow({"  execution",
                   util::formatSeconds(result.execSeconds())});
    if (spec.phase == models::Phase::Decode) {
        report.addRow({"Tokens/s/user",
                       util::formatDouble(1.0 / result.seconds(), 0)});
    }
    report.print(std::cout);

    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        trace.writeJson(out);
        std::cout << "\nwrote " << trace.eventCount()
                  << " trace events to " << trace_path
                  << " (open in chrome://tracing or Perfetto)\n";
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return runMain(run, argc, argv);
}

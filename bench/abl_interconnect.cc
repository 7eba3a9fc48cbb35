/**
 * @file
 * Interconnect ablation: does topology-aware dispatch actually route
 * around fabric congestion? Every corner replays the SAME recorded
 * Zipf request stream through an 8-node fully-replicated cluster (so
 * dispatch has full freedom), across a topology x dispatch grid:
 *
 *   {star, mesh, fat-tree} x {round-robin, topo-aware}
 *
 * with the SAME link-degrade fault schedule: node 2's fabric links
 * are stretched 40x for the middle of the run (a flapping NIC). Links
 * are deliberately thin (1 Gb/s) so the degraded link saturates under
 * round-robin's blind 1/8 share — the backlog then head-of-line
 * blocks the shared hub uplink and the whole cluster's tail pays.
 * Topology-aware dispatch reads path congestion off the fabric and
 * steers arrivals away from the sick node.
 *
 * The corner under test, gating CI: on the star topology under the
 * degraded link, topo-aware p95 must beat round-robin p95. Exits
 * non-zero if that flips.
 *
 *   abl_interconnect [--smoke] [--requests N] [--json FILE]
 *
 * Emits BENCH_interconnect.json.
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "coe/faults.h"
#include "coe/workload.h"
#include "perf_common.h"
#include "util/json.h"
#include "util/table.h"

using namespace sn40l;

namespace {

struct Corner
{
    std::string topology;
    std::string dispatch;
    coe::ClusterResult r;
};

int
run(int argc, char **argv)
{
    bench::BenchArgs args{20'000, "BENCH_interconnect.json"};
    tools::FlagParser parser(
        "abl_interconnect", "",
        "Interconnect ablation: topology x dispatch under a degraded\n"
        "link. Exits 1 if its corner flips.");
    bench::addBenchFlags(parser, args, 4'000);
    if (parser.parse(argc, argv, std::cout))
        return 0;
    const int requests = args.requests;

    const int nodes = 8;
    const double total_rate = 8.0 * nodes;
    const double duration = static_cast<double>(requests) / total_rate;

    coe::ServingConfig gen;
    gen.numExperts = 150;
    gen.batch = 8;
    gen.streamRequests = requests;
    gen.arrivalRatePerSec = total_rate;
    gen.routing = coe::RoutingDistribution::Zipf;
    gen.zipfS = 1.0;
    gen.scheduler = coe::SchedulerPolicy::ExpertAffinity;
    gen.seed = 17;

    // Node 2's links flap for the middle half of the run: stretched
    // 40x, which pushes its 1 Gb/s links below round-robin's offered
    // 1/8 share of the dispatch payload stream.
    auto faults = std::make_shared<std::vector<coe::FaultEvent>>(
        std::vector<coe::FaultEvent>{
            {0.20 * duration, coe::FaultKind::LinkDegrade, 2, 40.0,
             0.50 * duration},
        });

    std::cout << "Interconnect ablation: " << requests
              << " requests over " << util::formatDouble(duration, 0)
              << " s, " << nodes << "-node replicated cluster, "
              << "1 Gb/s links.\nFault: node 2 links x40 from "
              << util::formatDouble(0.2 * duration, 0) << " s to "
              << util::formatDouble(0.7 * duration, 0)
              << " s. Every corner replays the same trace.\n\n";

    std::shared_ptr<const std::vector<coe::TraceEntry>> trace =
        bench::recordTrace(gen);

    coe::ClusterConfig base;
    base.nodes = nodes;
    base.placement = coe::PlacementPolicy::FullReplication;
    base.node = gen;
    base.node.workload.traceEntries = trace; // replay owns arrivals
    base.faults = faults;
    base.fabric.enabled = true;
    base.fabric.linkGbps = 1.0;

    const sim::Topology topologies[] = {
        sim::Topology::Star, sim::Topology::Mesh2D,
        sim::Topology::FatTree};
    const coe::DispatchPolicy dispatches[] = {
        coe::DispatchPolicy::RoundRobin,
        coe::DispatchPolicy::TopologyAware};

    util::Table table({"Topology", "Dispatch", "p50", "p95", "p99",
                       "Credit stalls", "Max link util"});
    std::vector<Corner> corners;
    for (sim::Topology topo : topologies) {
        for (coe::DispatchPolicy disp : dispatches) {
            coe::ClusterConfig cfg = base;
            cfg.fabric.topology = topo;
            cfg.dispatch = disp;
            coe::ClusterResult r = coe::ClusterSimulator(cfg).run();
            if (r.oom) {
                std::cerr << "abl_interconnect: "
                          << sim::topologyName(topo) << "/"
                          << coe::dispatchPolicyName(disp)
                          << " went OOM\n";
                return 1;
            }
            if (r.stream.completed + r.stream.shed + r.stream.lost !=
                requests) {
                std::cerr << "abl_interconnect: "
                          << sim::topologyName(topo) << "/"
                          << coe::dispatchPolicyName(disp)
                          << " leaked requests\n";
                return 1;
            }
            table.addRow(
                {sim::topologyName(topo),
                 coe::dispatchPolicyName(disp),
                 util::formatSeconds(r.stream.p50LatencySeconds),
                 util::formatSeconds(r.stream.p95LatencySeconds),
                 util::formatSeconds(r.stream.p99LatencySeconds),
                 std::to_string(r.networkCreditStalls),
                 util::formatDouble(
                     r.networkMaxLinkUtilization * 100.0, 1) +
                     "%"});
            corners.push_back({sim::topologyName(topo),
                               coe::dispatchPolicyName(disp), r});
        }
        table.addSeparator();
    }
    table.print(std::cout);

    // The gate: the star corner, where the degraded spoke saturates
    // and head-of-line blocks the shared hub uplink under blind
    // round-robin. Topology-aware must win on p95.
    const coe::ClusterResult &star_rr = corners[0].r;
    const coe::ClusterResult &star_topo = corners[1].r;
    double rr_p95 = star_rr.stream.p95LatencySeconds;
    double topo_p95 = star_topo.stream.p95LatencySeconds;
    bool congested = star_rr.networkCreditStalls > 0;
    bool wins = topo_p95 < rr_p95;

    std::cout << "\nStar under the degraded link: topo-aware p95 "
              << util::formatSeconds(topo_p95) << " vs round-robin "
              << util::formatSeconds(rr_p95) << " ("
              << util::formatDouble(
                     topo_p95 > 0.0 ? rr_p95 / topo_p95 : 0.0, 2)
              << "x)\n"
              << (wins && congested
                      ? "interconnect corner holds: congestion bites "
                        "and topology-aware routes around it.\n"
                      : "WARNING: the interconnect corner flipped "
                        "(congested=" + std::to_string(congested) +
                            " wins=" + std::to_string(wins) + ").\n");

    bench::writeBenchJson("abl_interconnect", args, [&](util::JsonWriter &w) {
        w.field("arrival_rate", total_rate)
            .field("link_gbps", base.fabric.linkGbps)
            .field("degrade_factor", 40.0);
        w.key("corners").beginArray();
        for (const Corner &c : corners) {
            w.beginObject()
                .field("topology", c.topology)
                .field("dispatch", c.dispatch)
                .field("p50_s", c.r.stream.p50LatencySeconds)
                .field("p95_s", c.r.stream.p95LatencySeconds)
                .field("p99_s", c.r.stream.p99LatencySeconds)
                .field("messages", c.r.networkMessages)
                .field("flits", c.r.networkFlits)
                .field("credit_stalls", c.r.networkCreditStalls)
                .field("max_link_utilization",
                       c.r.networkMaxLinkUtilization)
                .field("events", c.r.stream.eventsExecuted)
                .endObject();
        }
        w.endArray()
            .field("star_rr_p95_s", rr_p95)
            .field("star_topo_p95_s", topo_p95)
            .field("congested", congested)
            .field("corner_holds", wins && congested);
    });
    return (wins && congested) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runMain(run, argc, argv);
}

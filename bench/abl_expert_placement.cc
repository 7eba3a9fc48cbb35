/**
 * @file
 * Expert-placement ablation for the multi-node serving cluster (the
 * CoServe trade-off, arXiv:2503.02354): on a Zipf-routed CoE, what
 * does each placement buy?
 *
 *  - full replication: every expert on every node. Best tail latency
 *    (any node serves anything) but the placement demands N copies of
 *    the whole zoo.
 *
 *  - balanced partition: every expert on exactly one node. Minimal
 *    footprint, but the Zipf head funnels through single nodes, which
 *    queue while their siblings idle.
 *
 *  - replicate-hot / partition-cold: the popularity head is
 *    replicated everywhere, the cold tail sharded. At >= 4 nodes on
 *    Zipf(1.0) it beats partition on p95 (hot traffic spreads) while
 *    demanding far less HBM than replication (the tail is not copied
 *    N times).
 *
 * Dispatch is least-outstanding throughout so the differences come
 * from placement eligibility, not the dispatcher.
 *
 *   abl_expert_placement [--requests N]   (default 1200 per point)
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "perf_common.h"
#include "util/table.h"

using namespace sn40l;

namespace {

int
run(int argc, char **argv)
{
    int requests = 1200;
    tools::FlagParser parser(
        "abl_expert_placement", "",
        "Expert-placement ablation on a Zipf-routed cluster. Exits 1 if\n"
        "replicate-hot stops winning its corner at 4 nodes.");
    bench::addCountFlag(parser, "--requests", requests,
                        "requests per point (default 1200)");
    if (parser.parse(argc, argv, std::cout))
        return 0;

    std::cout << "Expert placement ablation: 150 experts, Zipf(1.0) "
              << "routing, least-outstanding dispatch,\n"
              << "16 req/s offered per node, " << requests
              << " requests per point. replicate-hot copies the\n"
              << "15 hottest experts to every node and shards the "
              << "135-expert tail.\n\n";

    const std::vector<int> node_counts = {1, 4, 8};
    const std::vector<coe::PlacementPolicy> placements = {
        coe::PlacementPolicy::FullReplication,
        coe::PlacementPolicy::ReplicateHotPartitionCold,
        coe::PlacementPolicy::BalancedPartition,
    };

    util::Table table({"Nodes", "Placement", "Replicas", "Placed HBM",
                       "Peak resident", "p50", "p95", "p99", "Miss rate",
                       "Imbalance"});

    double hot_p95_4 = 0.0, part_p95_4 = 0.0;
    double hot_placed_4 = 0.0, repl_placed_4 = 0.0;

    for (int nodes : node_counts) {
        for (coe::PlacementPolicy placement : placements) {
            coe::ClusterConfig cfg;
            cfg.nodes = nodes;
            cfg.placement = placement;
            cfg.dispatch = coe::DispatchPolicy::LeastOutstanding;
            cfg.hotExperts = 15;
            cfg.node.numExperts = 150;
            cfg.node.batch = 8;
            cfg.node.streamRequests = requests;
            cfg.node.arrivalRatePerSec = 16.0 * nodes;
            cfg.node.routing = coe::RoutingDistribution::Zipf;
            cfg.node.zipfS = 1.0;
            cfg.node.scheduler = coe::SchedulerPolicy::ExpertAffinity;
            cfg.node.seed = 3;

            coe::ClusterResult r = coe::ClusterSimulator(cfg).run();
            const coe::StreamMetrics &m = r.stream;
            table.addRow({std::to_string(nodes),
                          coe::placementPolicyName(placement),
                          std::to_string(r.expertReplicas),
                          util::formatBytes(r.placedBytesTotal),
                          util::formatBytes(static_cast<double>(
                              r.peakResidentBytesTotal)),
                          util::formatSeconds(m.p50LatencySeconds),
                          util::formatSeconds(m.p95LatencySeconds),
                          util::formatSeconds(m.p99LatencySeconds),
                          util::formatDouble(r.missRate * 100, 1) + "%",
                          util::formatDouble(r.loadImbalance, 2) + "x"});

            if (nodes == 4) {
                if (placement ==
                    coe::PlacementPolicy::ReplicateHotPartitionCold) {
                    hot_p95_4 = m.p95LatencySeconds;
                    hot_placed_4 = r.placedBytesTotal;
                } else if (placement ==
                           coe::PlacementPolicy::BalancedPartition) {
                    part_p95_4 = m.p95LatencySeconds;
                } else {
                    repl_placed_4 = r.placedBytesTotal;
                }
            }
        }
    }
    table.print(std::cout);

    std::cout << "\nAt 4 nodes: replicate-hot p95 is "
              << util::formatDouble(
                     part_p95_4 > 0.0 ? hot_p95_4 / part_p95_4 * 100.0
                                      : 0.0,
                     1)
              << "% of partition's, with "
              << util::formatDouble(
                     repl_placed_4 > 0.0
                         ? hot_placed_4 / repl_placed_4 * 100.0
                         : 0.0,
                     1)
              << "% of replication's placed HBM.\n";

    bool hot_wins = hot_p95_4 < part_p95_4 && hot_placed_4 < repl_placed_4;
    std::cout << (hot_wins
                      ? "replicate-hot dominates the corner: faster tail "
                        "than partition, smaller footprint than "
                        "replication.\n"
                      : "WARNING: replicate-hot did not win both axes "
                        "at 4 nodes.\n");
    return hot_wins ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runMain(run, argc, argv);
}

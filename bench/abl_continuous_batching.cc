/**
 * @file
 * Ablation A9: continuous batching under a live request stream.
 * Sweeps the open-loop arrival rate against the scheduler policy
 * (FIFO vs expert-affinity) on an SN40L node serving 150 Llama2-7B
 * experts with Zipf routing, and reports tail latency, sustained
 * throughput, and expert-cache miss rate — the queueing behaviour the
 * closed-form averager of Fig 1 cannot show.
 *
 *   $ ./build/bench/abl_continuous_batching [--requests N]
 */

#include <iostream>

#include "coe/cluster.h"
#include "perf_common.h"
#include "util/table.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

int
run(int argc, char **argv)
{
    int requests = 400;
    tools::FlagParser parser(
        "abl_continuous_batching", "",
        "Continuous batching: arrival rate against FIFO and\n"
        "expert-affinity scheduling on one SN40L node.");
    bench::addCountFlag(parser, "--requests", requests,
                        "requests per cell (default 400)");
    if (parser.parse(argc, argv, std::cout))
        return 0;

    std::cout << "Ablation A9: continuous batching (SN40L node, 150 "
              << "experts, Zipf routing,\nmax batch 8, " << requests
              << " requests per cell)\n\n";

    util::Table table({"Arrival req/s", "Scheduler", "p50", "p95", "p99",
                       "Throughput", "Miss rate", "Mean queue"});

    for (double rate : {4.0, 8.0, 16.0, 32.0, 64.0}) {
        for (SchedulerPolicy policy :
             {SchedulerPolicy::Fifo, SchedulerPolicy::ExpertAffinity}) {
            ServingConfig cfg;
            cfg.platform = Platform::Sn40l;
            cfg.numExperts = 150;
            cfg.batch = 8;
            cfg.streamRequests = requests;
            cfg.routing = RoutingDistribution::Zipf;
            cfg.arrivalRatePerSec = rate;
            cfg.scheduler = policy;
            cfg.seed = 11;

            ServingResult r = ServingSimulator(cfg).run();
            const StreamMetrics &m = r.stream;
            table.addRow({util::formatDouble(rate, 0),
                          schedulerPolicyName(policy),
                          util::formatSeconds(m.p50LatencySeconds),
                          util::formatSeconds(m.p95LatencySeconds),
                          util::formatSeconds(m.p99LatencySeconds),
                          util::formatDouble(m.throughputRequestsPerSec, 2)
                              + " req/s",
                          util::formatDouble(r.missRate * 100, 1) + "%",
                          util::formatDouble(m.meanQueueDepth, 1)});
        }
        table.addSeparator();
    }
    table.print(std::cout);

    std::cout << "\nBelow saturation both schedulers track the arrival "
              << "rate; past it,\nthroughput clamps at the service rate "
              << "and queueing delay dominates the\ntail. Expert-affinity "
              << "batching trades arrival order for fewer expert\n"
              << "switches, cutting the miss rate on skewed routing.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runMain(run, argc, argv);
}

/**
 * @file
 * Serve a trillion-parameter Composition of Experts: 150 Llama2-7B
 * experts with a router, on a simulated SN40L node and on DGX
 * baselines, printing the per-batch latency breakdown of the paper's
 * closed-form model (coe::analyticBatches, the Fig 1 / Fig 9 flow).
 *
 * Ends with the event-driven streaming mode (the `sn40l_run serve`
 * subcommand): an open-loop Poisson request stream through the
 * continuous-batching scheduler, reporting tail latency and
 * sustained throughput under load.
 *
 *   $ ./build/examples/coe_serving [num_experts] [batch] [tokens]
 */

#include <cstdlib>
#include <iostream>

#include "coe/cluster.h"
#include "util/table.h"

using namespace sn40l;
using namespace sn40l::coe;

int
main(int argc, char **argv)
{
    ServingConfig cfg;
    cfg.numExperts = argc > 1 ? std::atoi(argv[1]) : 150;
    cfg.batch = argc > 2 ? std::atoi(argv[2]) : 8;
    cfg.outputTokens = argc > 3 ? std::atoi(argv[3]) : 20;

    std::cout << "Samba-CoE serving: " << cfg.numExperts
              << " Llama2-7B experts ("
              << util::formatBytes(cfg.numExperts *
                                   cfg.expertBase.weightBytes())
              << " of weights), batch " << cfg.batch << ", "
              << cfg.outputTokens << " output tokens, prompt "
              << cfg.promptLen << "\n\n";

    util::Table table({"Platform", "Router", "Switch", "Execute",
                       "Total/batch", "Miss rate", "HBM-resident"});

    double rdu_total = 0.0;
    for (Platform p : {Platform::Sn40l, Platform::DgxH100,
                       Platform::DgxA100}) {
        cfg.platform = p;
        ServingResult r = analyticBatches(cfg, 200);
        if (r.oom) {
            table.addRow({platformName(p), "-", "-", "-",
                          "OUT OF MEMORY", "-", "-"});
            continue;
        }
        if (p == Platform::Sn40l)
            rdu_total = r.perBatch.total();
        table.addRow({platformName(p),
                      util::formatSeconds(r.perBatch.routerSeconds),
                      util::formatSeconds(r.perBatch.switchSeconds),
                      util::formatSeconds(r.perBatch.execSeconds),
                      util::formatSeconds(r.perBatch.total()),
                      util::formatDouble(r.missRate * 100, 1) + "%",
                      std::to_string(r.residentCapacityExperts) +
                          " experts"});
    }
    table.print(std::cout);

    if (rdu_total > 0.0) {
        cfg.platform = Platform::DgxA100;
        ServingResult a100 = analyticBatches(cfg, 200);
        if (!a100.oom) {
            std::cout << "\nSN40L node speedup over DGX A100: "
                      << util::formatDouble(
                             a100.perBatch.total() / rdu_total, 1)
                      << "x\n";
        } else {
            std::cout << "\nDGX cannot host this zoo at all; the SN40L "
                      << "node serves it from DDR.\n";
        }
    }

    // Streaming mode: the same zoo under a live request stream (what
    // `sn40l_run serve --arrival-rate=...` exposes on the CLI).
    std::cout << "\nStreaming mode: open-loop Poisson arrivals at 16 "
              << "req/s, Zipf routing,\ncontinuous batching on the "
              << "SN40L node:\n\n";

    util::Table stream({"Scheduler", "p50", "p95", "p99", "Throughput",
                        "Miss rate"});
    for (SchedulerPolicy policy :
         {SchedulerPolicy::Fifo, SchedulerPolicy::ExpertAffinity}) {
        ServingConfig scfg = cfg;
        scfg.platform = Platform::Sn40l;
        scfg.routing = RoutingDistribution::Zipf;
        scfg.arrivalRatePerSec = 16.0;
        scfg.streamRequests = 300;
        scfg.scheduler = policy;

        ServingResult r = ServingSimulator(scfg).run();
        stream.addRow({schedulerPolicyName(policy),
                       util::formatSeconds(r.stream.p50LatencySeconds),
                       util::formatSeconds(r.stream.p95LatencySeconds),
                       util::formatSeconds(r.stream.p99LatencySeconds),
                       util::formatDouble(
                           r.stream.throughputRequestsPerSec, 2) +
                           " req/s",
                       util::formatDouble(r.missRate * 100, 1) + "%"});
    }
    stream.print(std::cout);
    return 0;
}

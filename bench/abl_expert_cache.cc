/**
 * @file
 * Ablation A5: expert caching policy and routing locality. Sweeps the
 * HBM expert-region size and routing distribution and reports miss
 * rates and per-request switch time on the SN40L — quantifying the
 * "HBM as software-managed cache between DDR and SRAM" design
 * (Section III-B).
 *
 * The first table drives the LRU runtime directly (synchronous
 * protocol); the second serves a live EventDriven stream where each
 * region size bounds the working set the async runtime can pin, and
 * misses are real DMA transfers whose exposed stall is measured.
 */

#include <iostream>

#include "coe/cluster.h"
#include "coe/coe_runtime.h"
#include "coe/router.h"
#include "util/table.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

double
missRate(int experts, int cache_slots, RoutingDistribution dist)
{
    ExpertZoo zoo =
        ExpertZoo::uniform(experts, models::LlmConfig::llama2_7b());
    double expert_bytes = zoo.expert(0).bytes;
    CoeRuntime runtime(zoo, static_cast<std::int64_t>(
                                cache_slots * expert_bytes * 1.001));
    Router router(experts, dist, 7);

    int misses = 0;
    const int trials = 5000;
    for (int i = 0; i < trials; ++i) {
        if (!runtime.activate(router.route()).hit)
            ++misses;
    }
    return static_cast<double>(misses) / trials;
}

} // namespace

int
main()
{
    std::cout << "Ablation A5: expert cache (150 experts in DDR, LRU "
              << "region in HBM)\n\n";

    util::Table table({"HBM slots", "Uniform miss", "Zipf miss",
                       "RoundRobin miss", "Avg switch/req (uniform)"});

    ServingConfig cfg;
    cfg.platform = Platform::Sn40l;
    double switch_s = ServingSimulator(cfg).phaseCosts().switchSeconds;

    for (int slots : {5, 10, 20, 38, 75, 150}) {
        double uni = missRate(150, slots, RoutingDistribution::Uniform);
        double zipf = missRate(150, slots, RoutingDistribution::Zipf);
        double rr = missRate(150, slots, RoutingDistribution::RoundRobin);
        table.addRow({std::to_string(slots),
                      util::formatDouble(uni * 100, 1) + "%",
                      util::formatDouble(zipf * 100, 1) + "%",
                      util::formatDouble(rr * 100, 1) + "%",
                      util::formatSeconds(uni * switch_s)});
    }
    table.print(std::cout);

    // --------------------------------------------------------------
    // The same sweep against the event-driven serving path: the
    // region size is applied through ServingConfig::expertRegionBytes
    // and every miss streams through the node's DMA engines.
    std::cout << "\nEvent-driven stream per region size (batch 1, Zipf "
              << "vs uniform routing,\n8 req/s, 250 requests):\n\n";

    double expert_bytes =
        models::LlmConfig::llama2_7b().weightBytes();

    util::Table stream({"HBM slots", "Routing", "p95", "Miss-stall p95",
                        "Miss rate", "DMA loads"});
    for (int slots : {10, 20, 38}) {
        for (RoutingDistribution dist :
             {RoutingDistribution::Zipf, RoutingDistribution::Uniform}) {
            ServingConfig scfg;
            scfg.platform = Platform::Sn40l;
            scfg.numExperts = 150;
            scfg.batch = 1;
            scfg.routing = dist;
            scfg.streamRequests = 250;
            scfg.arrivalRatePerSec = 8.0;
            scfg.seed = 7;
            scfg.expertRegionBytes =
                static_cast<std::int64_t>(slots * expert_bytes * 1.001);

            ServingSimulator sim(scfg);
            ServingResult r = sim.run();
            stream.addRow(
                {std::to_string(slots), routingDistributionName(dist),
                 util::formatSeconds(r.stream.p95LatencySeconds),
                 util::formatSeconds(r.stream.p95SwitchStallSeconds),
                 util::formatDouble(r.missRate * 100, 1) + "%",
                 util::formatDouble(sim.stats().get("dma_loads_issued"),
                                    0)});
        }
    }
    stream.print(std::cout);

    std::cout << "\nLRU exploits the temporal locality the paper relies "
              << "on; round-robin\nrouting defeats any cache smaller "
              << "than the expert count, and Zipf\n(real deployments) "
              << "makes even a small region effective.\n";
    return 0;
}

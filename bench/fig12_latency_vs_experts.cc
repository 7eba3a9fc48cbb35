/**
 * @file
 * Fig 12: Samba-CoE latency to generate 20 tokens vs expert count
 * (50-200) on the SN40L node, DGX A100, and DGX H100, for BS=8 (a)
 * and BS=1 (b). DGX latency climbs as experts spill past HBM into
 * host DRAM and the machines OOM past ~150 experts.
 */

#include <iostream>

#include "coe/serving.h"
#include "util/table.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

std::string
point(Platform p, int experts, int batch)
{
    ServingConfig cfg;
    cfg.platform = p;
    cfg.numExperts = experts;
    cfg.batch = batch;
    cfg.outputTokens = 20;
    ServingResult r = analyticBatches(cfg, 200);
    if (r.oom)
        return "OOM";
    return util::formatDouble(r.perBatch.total() * 1e3, 1);
}

void
sweep(int batch)
{
    std::cout << "Fig 12" << (batch == 8 ? "a" : "b") << ": BS="
              << batch << ", TP=8 latency (ms), 20 output tokens\n\n";
    util::Table table({"Experts", "DGX A100 (ms)", "DGX H100 (ms)",
                       "SN40L Node (ms)"});
    for (int experts : {10, 25, 50, 75, 100, 125, 150, 175, 200}) {
        table.addRow({std::to_string(experts),
                      point(Platform::DgxA100, experts, batch),
                      point(Platform::DgxH100, experts, batch),
                      point(Platform::Sn40l, experts, batch)});
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    std::cout << "Fig 12: CoE latency vs number of 7B experts\n\n";
    sweep(8);
    sweep(1);
    return 0;
}

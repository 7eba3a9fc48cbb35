/**
 * @file
 * Fig 1: CoE latency breakdown between model switching and model
 * execution for a 150-expert Samba-CoE generating 20 output tokens
 * from a Llama2-7B expert, at BS=8 (a) and BS=1 (b), TP8.
 */

#include <iostream>

#include "coe/serving.h"
#include "util/table.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

void
breakdownForBatch(int batch)
{
    std::cout << "Fig 1" << (batch == 8 ? "a" : "b") << ": BS=" << batch
              << ", TP=8, 150 experts, 20 output tokens\n\n";

    util::Table table({"Platform", "Router", "Switch", "Execute",
                       "Total", "Switch share"});
    for (Platform p : {Platform::DgxA100, Platform::DgxH100,
                       Platform::Sn40l}) {
        ServingConfig cfg;
        cfg.platform = p;
        cfg.numExperts = 150;
        cfg.batch = batch;
        cfg.outputTokens = 20;

        ServingResult r = analyticBatches(cfg, 200);
        const LatencyBreakdown &b = r.perBatch;
        table.addRow({platformName(p),
                      util::formatSeconds(b.routerSeconds),
                      util::formatSeconds(b.switchSeconds),
                      util::formatSeconds(b.execSeconds),
                      util::formatSeconds(b.total()),
                      util::formatDouble(b.switchShare() * 100, 1) + "%"});
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    std::cout << "Fig 1: CoE latency breakdown (switching vs execution)\n"
              << "Paper: switching dominates DGX latency; the SN40L's\n"
              << "DDR->HBM path makes it a small fraction.\n\n";
    breakdownForBatch(8);
    breakdownForBatch(1);
    return 0;
}

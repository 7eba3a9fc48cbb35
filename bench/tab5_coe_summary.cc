/**
 * @file
 * Table V: Samba-CoE performance comparison between the SN40L node,
 * DGX A100, and DGX H100 at 150 experts — overall and expert-only
 * speedups for BS in {1,8} and {20,200} output tokens, the model
 * switching speedup, and the >150-expert OOM row.
 */

#include <iostream>

#include "coe/serving.h"
#include "util/table.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

ServingResult
serve(Platform p, int batch, int tokens, int experts = 150)
{
    ServingConfig cfg;
    cfg.platform = p;
    cfg.numExperts = experts;
    cfg.batch = batch;
    cfg.outputTokens = tokens;
    return analyticBatches(cfg, 200);
}

} // namespace

int
main()
{
    std::cout << "Table V: Samba-CoE comparison, 150 Llama2-7B experts, "
              << "TP8\n\n";

    util::Table table({"Metric", "vs DGX A100 (ours)",
                       "vs DGX A100 (paper)", "vs DGX H100 (ours)",
                       "vs DGX H100 (paper)"});

    struct Case
    {
        int batch;
        int tokens;
        double paperA, paperH;
    };
    const Case overall[] = {
        {8, 20, 6.6, 3.7},
        {1, 20, 4.8, 2.8},
        {8, 200, 4.2, 2.7},
        {1, 200, 3.9, 2.6},
    };

    for (const Case &c : overall) {
        ServingResult rdu = serve(Platform::Sn40l, c.batch, c.tokens);
        ServingResult a = serve(Platform::DgxA100, c.batch, c.tokens);
        ServingResult h = serve(Platform::DgxH100, c.batch, c.tokens);
        std::string label = "Overall Speedup, BS=" +
            std::to_string(c.batch) + ", " + std::to_string(c.tokens) +
            " tokens";
        table.addRow({label,
                      util::formatDouble(a.perBatch.total() /
                                         rdu.perBatch.total(), 1) + "x",
                      util::formatDouble(c.paperA, 1) + "x",
                      util::formatDouble(h.perBatch.total() /
                                         rdu.perBatch.total(), 1) + "x",
                      util::formatDouble(c.paperH, 1) + "x"});
    }

    const Case expert_cases[] = {
        {1, 20, 2.0, 1.5},
        {1, 200, 3.2, 2.3},
    };
    for (const Case &c : expert_cases) {
        ServingResult rdu = serve(Platform::Sn40l, c.batch, c.tokens);
        ServingResult a = serve(Platform::DgxA100, c.batch, c.tokens);
        ServingResult h = serve(Platform::DgxH100, c.batch, c.tokens);
        std::string label = "Expert Speedup, BS=1, " +
            std::to_string(c.tokens) + " tokens";
        table.addRow({label,
                      util::formatDouble(a.expertSecondsPerPrompt /
                                         rdu.expertSecondsPerPrompt, 1) +
                          "x",
                      util::formatDouble(c.paperA, 1) + "x",
                      util::formatDouble(h.expertSecondsPerPrompt /
                                         rdu.expertSecondsPerPrompt, 1) +
                          "x",
                      util::formatDouble(c.paperH, 1) + "x"});
    }

    // Switching speedup from the platform primitive costs.
    {
        ServingConfig cfg;
        cfg.platform = Platform::Sn40l;
        double rdu = computePhaseCosts(cfg).switchSeconds;
        cfg.platform = Platform::DgxA100;
        double a = computePhaseCosts(cfg).switchSeconds;
        cfg.platform = Platform::DgxH100;
        double h = computePhaseCosts(cfg).switchSeconds;
        table.addRow({"Model Switching Time",
                      util::formatDouble(a / rdu, 0) + "x", "31x",
                      util::formatDouble(h / rdu, 0) + "x", "15x"});
    }

    // OOM row.
    {
        ServingResult a = serve(Platform::DgxA100, 1, 20, 160);
        ServingResult h = serve(Platform::DgxH100, 1, 20, 160);
        ServingResult r = serve(Platform::Sn40l, 1, 20, 160);
        table.addRow({"> 150 Experts",
                      a.oom && !r.oom ? "DGX OOM" : "?", "DGX OOM",
                      h.oom && !r.oom ? "DGX OOM" : "?", "DGX OOM"});
    }

    table.print(std::cout);
    return 0;
}

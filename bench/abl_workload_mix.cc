/**
 * @file
 * Ablation A12: workload scenarios against the serving stack. One
 * SN40L node, 150 Llama2-7B experts, expert-affinity batching, fixed
 * offered load — only the *structure* of the traffic changes:
 *
 *   uniform       single tenant, uniform routing (paper's worst case)
 *   zipf          single tenant, Zipf(1.0) routing
 *   bursty        Zipf + 4x flash-crowd windows (1s of every 5s)
 *   tenant mix    4 tenants, rotated hot sets, mixed request shapes
 *   sessions      tenant mix + conversational follow-up turns
 *   mix + SLO     tenant mix under a 2s deadline: overload is shed
 *
 * CoServe's point (arXiv:2503.02354), reproduced on our stack:
 * workload structure moves tail latency and miss rate at a fixed mean
 * rate — session reuse concentrates the expert working set while
 * bursts blow up the tail. The final section replays a recorded trace
 * and exits non-zero if the replay is not bit-identical, keeping the
 * record/replay invariant visible in CI's bench-smoke log.
 *
 *   $ ./build/bench/abl_workload_mix [--requests N]
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "coe/cluster.h"
#include "coe/workload.h"
#include "perf_common.h"
#include "util/table.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

ServingConfig
baseConfig(int requests)
{
    ServingConfig cfg;
    cfg.platform = Platform::Sn40l;
    cfg.numExperts = 150;
    cfg.batch = 8;
    cfg.streamRequests = requests;
    cfg.routing = RoutingDistribution::Zipf;
    cfg.zipfS = 1.0;
    cfg.arrivalRatePerSec = 24.0;
    cfg.scheduler = SchedulerPolicy::ExpertAffinity;
    cfg.seed = 11;
    return cfg;
}

int
run(int argc, char **argv)
{
    int requests = 600;
    tools::FlagParser parser(
        "abl_workload_mix", "",
        "Workload scenarios at one offered load, then a trace record\n"
        "and replay. Exits 1 if the replay is not bit-identical.");
    bench::addCountFlag(parser, "--requests", requests,
                        "requests per scenario row (default 600)");
    if (parser.parse(argc, argv, std::cout))
        return 0;

    std::cout << "Ablation A12: workload scenarios (SN40L node, 150 "
              << "experts, affinity\nbatching, 24 req/s offered, "
              << requests << " requests per row)\n\n";

    struct Scenario
    {
        const char *name;
        ServingConfig cfg;
    };
    std::vector<Scenario> scenarios;

    {
        ServingConfig cfg = baseConfig(requests);
        cfg.routing = RoutingDistribution::Uniform;
        scenarios.push_back({"uniform", cfg});
    }
    scenarios.push_back({"zipf", baseConfig(requests)});
    {
        ServingConfig cfg = baseConfig(requests);
        cfg.workload.shape.burstFactor = 4.0;
        cfg.workload.shape.burstEverySeconds = 5.0;
        cfg.workload.shape.burstSeconds = 1.0;
        scenarios.push_back({"bursty", cfg});
    }
    {
        ServingConfig cfg = baseConfig(requests);
        cfg.workload.tenants = 4;
        scenarios.push_back({"tenant mix", cfg});
    }
    {
        ServingConfig cfg = baseConfig(requests);
        cfg.workload.tenants = 4;
        cfg.workload.sessionFollowProb = 0.6;
        cfg.workload.sessionThinkSeconds = 0.2;
        scenarios.push_back({"sessions", cfg});
    }
    {
        ServingConfig cfg = baseConfig(requests);
        cfg.workload.tenants = 4;
        cfg.workload.sloSeconds = 2.0;
        scenarios.push_back({"mix + SLO", cfg});
    }

    util::Table table({"Scenario", "p50", "p95", "p99", "Throughput",
                       "Miss rate", "Shed", "Mean queue"});
    for (const Scenario &s : scenarios) {
        ServingResult r = ServingSimulator(s.cfg).run();
        const StreamMetrics &m = r.stream;
        table.addRow({s.name, util::formatSeconds(m.p50LatencySeconds),
                      util::formatSeconds(m.p95LatencySeconds),
                      util::formatSeconds(m.p99LatencySeconds),
                      util::formatDouble(m.throughputRequestsPerSec, 2) +
                          " req/s",
                      util::formatDouble(r.missRate * 100, 1) + "%",
                      util::formatDouble(m.shedRate * 100, 1) + "%",
                      util::formatDouble(m.meanQueueDepth, 1)});
    }
    table.print(std::cout);

    // ---- record/replay invariant --------------------------------
    // Record the sessions scenario (completion-coupled arrivals are
    // the hard case), replay the trace, and require bit-identical
    // stream metrics. A drift here means the trace no longer captures
    // the full arrival process.
    ServingConfig rec = baseConfig(requests);
    rec.workload.tenants = 4;
    rec.workload.sessionFollowProb = 0.6;
    rec.workload.sessionThinkSeconds = 0.2;
    std::string trace = "abl_workload_mix.trace.jsonl";
    rec.workload.traceOut = trace;
    ServingResult recorded = ServingSimulator(rec).run();

    ServingConfig rep = baseConfig(requests);
    rep.workload.traceIn = trace;
    ServingResult replayed = ServingSimulator(rep).run();
    std::remove(trace.c_str());

    bool identical =
        recorded.stream.p50LatencySeconds ==
            replayed.stream.p50LatencySeconds &&
        recorded.stream.p99LatencySeconds ==
            replayed.stream.p99LatencySeconds &&
        recorded.stream.meanLatencySeconds ==
            replayed.stream.meanLatencySeconds &&
        recorded.stream.makespanSeconds ==
            replayed.stream.makespanSeconds &&
        recorded.missRate == replayed.missRate &&
        recorded.stream.batches == replayed.stream.batches;
    std::cout << "\nTrace record/replay (sessions scenario): "
              << (identical ? "bit-identical" : "DIVERGED") << "\n";

    std::cout << "\nAt one fixed mean rate, structure decides the tail: "
              << "bursts overload the\nqueue during flash windows, "
              << "session reuse tightens the expert working\nset, and "
              << "SLO admission trades shed requests for a bounded "
              << "tail.\n";
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runMain(run, argc, argv);
}

/**
 * @file
 * Chaos ablation: do the degraded-mode serving policies actually keep
 * work from being silently lost when the cluster misbehaves? Every
 * corner replays the SAME recorded multi-tenant trace (3 priority
 * tiers with SLO deadlines) against the SAME JSONL-shaped fault
 * schedule — a node crash with a later rejoin, a DMA stall window, a
 * straggler window, and a flaky-dispatch window — so the policies
 * compete on identical traffic and identical injected misbehaviour:
 *
 *  - no-policy: faults with every degraded-mode policy off. Displaced
 *    work (crash queues, flaky dispatches) is counted lost.
 *
 *  - retry-only: bounded re-dispatch with exponential backoff under a
 *    cluster-wide retry budget.
 *
 *  - retry+hedge+brownout: retries plus hedged dispatch (duplicate to
 *    the best other node when the queueing estimate threatens the
 *    deadline, cancel the loser) plus priority-tier brown-out (shed
 *    the free tier at the door while queues are in overload).
 *
 * The corner under test, gating CI: with the full policy stack at
 * least 99% of arrivals are completed-or-shed (shed is an accounted,
 * deliberate degradation; lost is the silent failure), retries
 * recover strictly more work than no-policy, and the p99 tail stays
 * within a bounded multiple of the fault-free baseline. Exits
 * non-zero if any axis flips.
 *
 *   abl_chaos [--smoke] [--requests N] [--json FILE]
 *
 * Emits BENCH_chaos.json.
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "coe/faults.h"
#include "coe/workload.h"
#include "perf_common.h"
#include "sim/event_queue.h"
#include "util/json.h"
#include "util/table.h"

using namespace sn40l;

namespace {

/** Record the shared multi-tenant arrival trace in memory (same
 *  model and RNG draws as a --trace-out file, no disk). */
std::shared_ptr<const std::vector<coe::TraceEntry>>
recordTrace(const coe::ServingConfig &gen)
{
    sim::EventQueue eq;
    std::unique_ptr<coe::WorkloadModel> model =
        coe::makeWorkloadModel(gen);
    auto entries = std::make_shared<std::vector<coe::TraceEntry>>();
    model->bind(eq, [&](const coe::TrafficRequest &r) {
        entries->push_back({r, eq.now()});
    });
    model->start();
    eq.run(); // open loop: arrivals self-schedule
    return entries;
}

struct Corner
{
    std::string name;
    coe::ClusterResult r;
};

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    int requests = 40'000;
    bool requests_set = false;
    std::string json_path = "BENCH_chaos.json";

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "abl_chaos: " << arg
                          << " expects a value\n";
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--smoke") smoke = true;
        else if (arg == "--requests") {
            requests = std::stoi(next());
            requests_set = true;
        }
        else if (arg == "--json") json_path = next();
        else {
            std::cerr << "usage: abl_chaos [--smoke] [--requests N] "
                      << "[--json FILE]\n";
            return 1;
        }
    }
    if (smoke && !requests_set)
        requests = 8'000;

    const int nodes = 4;
    const double total_rate = 24.0;
    const double duration = static_cast<double>(requests) / total_rate;

    coe::ServingConfig gen;
    gen.numExperts = 150;
    gen.batch = 8;
    gen.streamRequests = requests;
    gen.arrivalRatePerSec = total_rate;
    gen.scheduler = coe::SchedulerPolicy::ExpertAffinity;
    gen.seed = 13;
    gen.workload.tenants = 3;      // priority tiers 0/1/2
    gen.workload.sloSeconds = 0.4; // deadlines widen with priority

    // The fault schedule, timed as fractions of the run so --smoke
    // exercises the same shape: a crash that rejoins, a DMA stall, a
    // straggler, and a flaky-dispatch window, each on its own node.
    auto faults = std::make_shared<std::vector<coe::FaultEvent>>(
        std::vector<coe::FaultEvent>{
            {0.20 * duration, coe::FaultKind::NodeCrash, 2, 1.0,
             0.20 * duration},
            {0.45 * duration, coe::FaultKind::DmaStall, 0, 4.0,
             0.10 * duration},
            {0.60 * duration, coe::FaultKind::Straggler, 1, 3.0,
             0.10 * duration},
            {0.75 * duration, coe::FaultKind::FlakyNode, 3, 0.4,
             0.10 * duration},
        });

    std::cout << "Chaos ablation: " << requests << " requests over "
              << util::formatDouble(duration, 0)
              << " s, 3 priority tiers, 400 ms base SLO, " << nodes
              << "-node replicate-hot cluster.\n"
              << "Fault schedule: crash node 2 (rejoins), DMA stall "
              << "x4 node 0, straggler x3 node 1,\nflaky 40% node 3. "
              << "Every corner replays the same trace and schedule.\n\n";

    std::shared_ptr<const std::vector<coe::TraceEntry>> trace =
        recordTrace(gen);

    coe::ClusterConfig base;
    base.nodes = nodes;
    base.placement = coe::PlacementPolicy::ReplicateHotPartitionCold;
    base.hotExperts = 15;
    base.dispatch = coe::DispatchPolicy::RoundRobin;
    base.node = gen;
    base.node.workload.traceEntries = trace; // replay owns arrivals

    coe::ClusterConfig nopol_cfg = base;
    nopol_cfg.faults = faults;

    coe::ClusterConfig retry_cfg = nopol_cfg;
    retry_cfg.faultPolicy.retryMax = 4;
    retry_cfg.faultPolicy.retryBackoffSeconds = 0.025;

    coe::ClusterConfig full_cfg = retry_cfg;
    full_cfg.faultPolicy.hedge = true;
    full_cfg.faultPolicy.hedgeThreshold = 1.0;
    full_cfg.faultPolicy.brownoutDepth = 6.0;
    full_cfg.faultPolicy.brownoutPriorityMax = 0; // shed the free tier
    full_cfg.faultPolicy.policyTickSeconds = 0.05;

    coe::ClusterResult clean = coe::ClusterSimulator(base).run();
    std::vector<Corner> corners;
    corners.push_back({"no-policy",
                       coe::ClusterSimulator(nopol_cfg).run()});
    corners.push_back({"retry-only",
                       coe::ClusterSimulator(retry_cfg).run()});
    corners.push_back({"retry+hedge+brownout",
                       coe::ClusterSimulator(full_cfg).run()});

    if (clean.oom)
        { std::cerr << "abl_chaos: baseline went OOM\n"; return 1; }
    for (const Corner &c : corners) {
        if (c.r.oom) {
            std::cerr << "abl_chaos: corner " << c.name
                      << " went OOM\n";
            return 1;
        }
        // The library asserts arrivals == completed + shed + lost at
        // drain; re-check the ledger here against the planned count.
        if (c.r.stream.completed + c.r.stream.shed +
                c.r.stream.lost != requests) {
            std::cerr << "abl_chaos: corner " << c.name
                      << " leaked requests\n";
            return 1;
        }
    }

    util::Table table({"Corner", "Completed", "Shed", "Lost",
                       "Retried", "Hedged", "Won", "p50", "p99"});
    auto addRow = [&table](const std::string &name,
                           const coe::ClusterResult &r) {
        const coe::StreamMetrics &m = r.stream;
        table.addRow({name, std::to_string(m.completed),
                      std::to_string(m.shed), std::to_string(m.lost),
                      std::to_string(m.retried),
                      std::to_string(m.hedged),
                      std::to_string(m.hedgeWon),
                      util::formatSeconds(m.p50LatencySeconds),
                      util::formatSeconds(m.p99LatencySeconds)});
    };
    addRow("fault-free", clean);
    for (const Corner &c : corners)
        addRow(c.name, c.r);
    table.print(std::cout);

    const coe::StreamMetrics &nopol = corners[0].r.stream;
    const coe::StreamMetrics &retry = corners[1].r.stream;
    const coe::StreamMetrics &full = corners[2].r.stream;

    // The gate. Shed is deliberate, accounted degradation (SLO
    // admission + brown-out); lost is the silent failure the layer
    // exists to bound.
    const double p99_cap = 5.0;
    double served_frac = requests > 0
        ? static_cast<double>(full.completed + full.shed) /
            static_cast<double>(requests)
        : 0.0;
    double p99_ratio = clean.stream.p99LatencySeconds > 0.0
        ? full.p99LatencySeconds / clean.stream.p99LatencySeconds
        : 0.0;
    bool faults_bite = nopol.lost > 0;
    bool served_ok = served_frac >= 0.99;
    bool retry_recovers = retry.lost < nopol.lost;
    bool tail_ok = full.p99LatencySeconds <=
        p99_cap * clean.stream.p99LatencySeconds;
    bool wins = faults_bite && served_ok && retry_recovers && tail_ok;

    std::cout << "\nFull policy stack served-or-shed "
              << util::formatDouble(served_frac * 100.0, 2)
              << "% of arrivals (lost " << full.lost << " vs "
              << nopol.lost << " with no policy) at "
              << util::formatDouble(p99_ratio, 2)
              << "x the fault-free p99.\n"
              << (wins ? "chaos corner holds: nothing silently lost "
                         "beyond 1%, tail bounded.\n"
                       : "WARNING: the chaos corner flipped (bite=" +
                             std::to_string(faults_bite) + " served=" +
                             std::to_string(served_ok) + " retry=" +
                             std::to_string(retry_recovers) +
                             " tail=" + std::to_string(tail_ok) +
                             ").\n");

    std::ofstream out(json_path);
    {
        util::JsonWriter w(out, /*pretty=*/true);
        w.beginObject()
            .field("bench", "abl_chaos")
            .field("commit", bench::gitCommitHash())
            .field("timestamp_utc", bench::isoTimestampUtc())
            .field("mode", smoke ? "smoke" : "full")
            .field("requests", requests)
            .field("arrival_rate", total_rate)
            .field("slo_s", gen.workload.sloSeconds)
            .field("fault_events",
                   static_cast<int>(faults->size()));
        auto corner = [&w](const char *name,
                           const coe::ClusterResult &r) {
            w.key(name)
                .beginObject()
                .field("completed", r.stream.completed)
                .field("shed", r.stream.shed)
                .field("lost", r.stream.lost)
                .field("retried", r.stream.retried)
                .field("hedged", r.stream.hedged)
                .field("hedge_won", r.stream.hedgeWon)
                .field("crashes", r.crashes)
                .field("faults_injected", r.faultsInjected)
                .field("p50_s", r.stream.p50LatencySeconds)
                .field("p99_s", r.stream.p99LatencySeconds)
                .field("events", r.stream.eventsExecuted)
                .endObject();
        };
        corner("fault_free", clean);
        corner("no_policy", corners[0].r);
        corner("retry_only", corners[1].r);
        corner("full_policy", corners[2].r);
        w.field("served_or_shed_frac", served_frac)
            .field("p99_ratio", p99_ratio)
            .field("p99_cap", p99_cap)
            .field("corner_holds", wins)
            .endObject();
        out << "\n";
    }
    std::cout << "wrote " << json_path << "\n";
    return wins ? 0 : 1;
}

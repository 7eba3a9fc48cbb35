/**
 * @file
 * sn40l_run: command-line driver for the simulator. Compiles and
 * executes one workload and prints a report; optionally writes a
 * Chrome trace-event timeline.
 *
 *   sn40l_run --model llama2-7b --phase decode --seq 2048 --tp 8 \
 *             [--batch 1] [--config fused-ho|fused-so|unfused] \
 *             [--sockets 8] [--trace out.json]
 *
 * The `serve` subcommand drives the event-driven CoE request-stream
 * scheduler and reports tail latency and throughput; `sweep` shards a
 * Cartesian grid of serve points over a thread pool; `cluster` runs a
 * multi-node serving cluster with pluggable expert placement and
 * request dispatch, scripted mid-run actions (drain/rejoin/rate
 * overrides), an autoscaling control plane (--controller), and a
 * capacity planner (--plan-capacity).
 *
 * Every subcommand documents its flags via `--help`. Flags shared
 * between subcommands (workload shape, memory system, arrivals,
 * scenarios, core serving scalars, control plane) are declared once
 * in tools/cli_config.h and registered into each subcommand's
 * FlagParser, so no subcommand copies another's flag handling and
 * unknown-flag errors always name the subcommand they came from.
 */

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "coe/cluster.h"
#include "coe/metrics_io.h"
#include "coe/serving.h"
#include "coe/sweep.h"
#include "coe/workload.h"
#include "models/model_zoo.h"
#include "runtime/runner.h"
#include "runtime/trace.h"
#include "util/table.h"

#include "cli_config.h"
#include "flag_parser.h"

using namespace sn40l;
using namespace sn40l::tools;

namespace {

models::LlmConfig
modelByName(const std::string &name)
{
    using models::LlmConfig;
    static const std::map<std::string, LlmConfig (*)()> zoo = {
        {"llama2-7b", &LlmConfig::llama2_7b},
        {"llama2-13b", &LlmConfig::llama2_13b},
        {"sparsegpt-13b", &LlmConfig::sparseGpt13b},
        {"llama2-70b", &LlmConfig::llama2_70b},
        {"llama3.1-8b", &LlmConfig::llama31_8b},
        {"llama3.1-70b", &LlmConfig::llama31_70b},
        {"llama3.1-405b", &LlmConfig::llama31_405b},
        {"mistral-7b", &LlmConfig::mistral7b},
        {"falcon-40b", &LlmConfig::falcon40b},
        {"bloom-176b", &LlmConfig::bloom176b},
        {"llava1.5-7b", &LlmConfig::llava15_7b},
    };
    auto it = zoo.find(name);
    if (it == zoo.end()) {
        std::cerr << "unknown model '" << name << "'. Available:\n";
        for (const auto &kv : zoo)
            std::cerr << "  " << kv.first << "\n";
        std::exit(1);
    }
    return it->second();
}

// ------------------------------------------------------- help text

void
serveHelp(std::ostream &os)
{
    os << "usage: sn40l_run serve [flags]\n"
       << "\n"
       << "Event-driven CoE request-stream serving: requests arrive, are\n"
       << "continuously batched against the live LRU expert cache, and\n"
       << "every expert switch streams DDR->HBM through the platform's\n"
       << "DMA engines, contending with decode traffic.\n"
       << "\n"
       << "Workload:\n"
       << "  --platform P          sn40l | dgx-a100 | dgx-h100 "
       << "(default sn40l)\n"
       << "  --experts N           experts in the zoo (default 150)\n"
       << "  --batch N             max prompts per batch (default 8)\n"
       << "  --tokens N            output tokens per prompt (default 20)\n"
       << "  --requests N          requests to stream (default 512)\n"
       << "  --routing D           uniform | zipf | round-robin\n"
       << "  --zipf-s S            Zipf skew (requires --routing zipf)\n"
       << "  --seed N              RNG seed (default 1)\n"
       << "\n"
       << "Arrivals:\n"
       << "  --arrival-rate R      open-loop Poisson rate, req/s "
       << "(default 8)\n"
       << "  --closed-loop         fixed client pool instead of Poisson\n"
       << "  --clients N           pool size (requires --closed-loop)\n"
       << "  --think SEC           client think time (requires "
       << "--closed-loop)\n"
       << "\n"
       << "Scheduler:\n"
       << "  --scheduler S         fifo | affinity | both (default both)\n"
       << "\n"
       << "Workload scenarios (see README 'Workload scenarios'):\n"
       << "  --workload W          poisson | closed-loop | mix "
       << "(default:\n"
       << "                        poisson, or closed-loop with\n"
       << "                        --closed-loop)\n"
       << "  --tenants N           tenants in the mix (implies\n"
       << "                        --workload mix; default 4)\n"
       << "  --slo-ms MS           per-request deadline; overloaded\n"
       << "                        arrivals are shed at admission\n"
       << "  --session-prob P      P(follow-up turn) after each "
       << "completed\n"
       << "                        turn (conversational sessions)\n"
       << "  --session-think SEC   mean think time between turns\n"
       << "  --session-turns N     max turns per session (default 8)\n"
       << "  --burst-factor F      arrival-rate multiplier inside "
       << "burst\n"
       << "                        windows (flash crowds)\n"
       << "  --burst-every SEC     burst window period\n"
       << "  --burst-seconds SEC   burst window length\n"
       << "  --trace-out FILE      record the request stream as JSONL\n"
       << "  --trace-in FILE       replay a recorded stream "
       << "bit-exactly\n"
       << "\n"
       << "Memory system:\n"
       << "  --prefetch            speculative prefetch: queued requests'\n"
       << "                        experts stream at low DMA priority\n"
       << "  --prefetch-depth N    max outstanding prefetches (requires\n"
       << "                        --prefetch; default 4)\n"
       << "  --prefetch-window N   queued requests the prefetcher\n"
       << "                        inspects per decision (0 = whole\n"
       << "                        queue, the default; bound it for\n"
       << "                        overloaded runs)\n"
       << "  --dma-engines N       DMA engines streaming experts "
       << "(default 2)\n"
       << "  --expert-region-gb G  HBM expert-region size in GB "
       << "(default:\n"
       << "                        platform HBM minus router/KV reserve)\n"
       << "\n"
       << "Speculative decoding (see docs/CLI.md):\n"
       << "  --spec-decode         draft/verify serving: an always-\n"
       << "                        resident draft model proposes gamma\n"
       << "                        tokens per step; each request samples\n"
       << "                        its own acceptance stream\n"
       << "  --spec-gamma N        draft tokens per verification step\n"
       << "                        (requires --spec-decode; default 4)\n"
       << "  --spec-accept P       per-token acceptance probability in\n"
       << "                        [0, 1] (default 0.8)\n"
       << "  --spec-draft-ratio F  draft model size/cost as a fraction\n"
       << "                        of the target in (0, 1) (default "
       << "0.05)\n"
       << "\n"
       << "PEFT expert zoo (see docs/CLI.md):\n"
       << "  --zoo-adapters N      serve N LoRA adapters sharing pinned\n"
       << "                        base weights instead of full-weight\n"
       << "                        experts (replaces --experts)\n"
       << "  --zoo-rank R          LoRA rank; adapter bytes scale with\n"
       << "                        it (requires --zoo-adapters; "
       << "default 16)\n"
       << "  --zoo-churn SEC       rotate adapter popularity every SEC\n"
       << "                        seconds (trending adapters; "
       << "default off)\n";
}

void
sweepHelp(std::ostream &os)
{
    os << "usage: sn40l_run sweep [flags]\n"
       << "\n"
       << "Cartesian sweep of event-driven serving points (nodes x\n"
       << "placements x experts x arrival rates x batch sizes x\n"
       << "schedulers x seeds), sharded across a thread pool. Every\n"
       << "point is an independent deterministic simulation with its\n"
       << "own event queue, so `-j N` produces bit-identical per-point\n"
       << "results to `-j 1`.\n"
       << "\n"
       << "Axes (comma-separated lists):\n"
       << "  --experts LIST        e.g. 50,100,150 (default 150)\n"
       << "  --arrival-rate LIST   req/s per node, e.g. 8,16,24 "
       << "(default 8)\n"
       << "  --batch LIST          max prompts per batch (default 8)\n"
       << "  --scheduler S         fifo | affinity | both (default both)\n"
       << "  --seeds LIST          RNG seeds, e.g. 1,2,3 (default 1)\n"
       << "  --nodes LIST          cluster sizes, e.g. 1,4,8 (default:\n"
       << "                        single-node serving, no cluster)\n"
       << "  --placement LIST      replication | replicate-hot | "
       << "partition\n"
       << "                        (requires --nodes)\n"
       << "  --dispatch D          round-robin | least-outstanding |\n"
       << "                        expert-affinity (requires --nodes)\n"
       << "\n"
       << "Per-point workload (same meaning as `serve`):\n"
       << "  --platform P          sn40l | dgx-a100 | dgx-h100\n"
       << "  --requests N          requests per point (default 512)\n"
       << "  --tokens N            output tokens per prompt\n"
       << "  --routing D           uniform | zipf | round-robin\n"
       << "  --zipf-s S            Zipf skew (requires --routing zipf)\n"
       << "  --prefetch            speculative prefetch\n"
       << "  --prefetch-depth N    max outstanding prefetches\n"
       << "  --prefetch-window N   prefetcher inspection window\n"
       << "                        (0 = whole queue)\n"
       << "  --dma-engines N       DMA engines per point\n"
       << "  --expert-region-gb G  HBM expert-region size in GB\n"
       << "\n"
       << "Speculative decoding / PEFT zoo (same meaning as `serve`;\n"
       << "applied to every point):\n"
       << "  --spec-decode, --spec-gamma, --spec-accept,\n"
       << "  --spec-draft-ratio, --zoo-adapters (conflicts with the\n"
       << "  --experts axis), --zoo-rank, --zoo-churn\n"
       << "\n"
       << "Workload scenarios (same meaning as `serve`):\n"
       << "  --workload, --tenants, --slo-ms, --session-prob,\n"
       << "  --session-think, --session-turns, --burst-factor,\n"
       << "  --burst-every, --burst-seconds\n"
       << "  --trace-in FILE       replay ONE recorded stream across\n"
       << "                        every point, so configs compete on\n"
       << "                        identical traffic (--trace-out is\n"
       << "                        not allowed here)\n"
       << "\n"
       << "Faults & degraded mode (cluster points only, same meaning\n"
       << "as `cluster`): --faults, --retry-max, --retry-backoff-ms,\n"
       << "  --retry-budget, --hedge, --hedge-threshold,\n"
       << "  --brownout-depth, --brownout-prio, --policy-tick-ms\n"
       << "  The schedule is parsed once and replayed identically at\n"
       << "  every point (requires --nodes)\n"
       << "\n"
       << "Execution:\n"
       << "  -j N / --jobs N       worker threads (default: hardware\n"
       << "                        concurrency)\n"
       << "  --json FILE           write per-point metrics as JSON\n";
}

void
clusterHelp(std::ostream &os)
{
    os << "usage: sn40l_run cluster [flags]\n"
       << "\n"
       << "Multi-node CoE serving cluster: N per-node serving stacks\n"
       << "(each its own LRU expert cache and DMA memory system) on one\n"
       << "event queue, fronted by a cluster router with pluggable\n"
       << "expert placement and request dispatch. Supports scripted\n"
       << "mid-run actions (drain/rejoin/rate overrides), a diurnal\n"
       << "arrival ramp, an autoscaling control plane, and capacity\n"
       << "planning.\n"
       << "\n"
       << "Cluster:\n"
       << "  --nodes N             nodes in the cluster (default 4)\n"
       << "  --placement P         replication | replicate-hot | "
       << "partition\n"
       << "                        (default replicate-hot)\n"
       << "  --hot-experts N       experts replicated on every node\n"
       << "                        (requires --placement replicate-hot;\n"
       << "                        default experts/10)\n"
       << "  --dispatch D          round-robin | least-outstanding |\n"
       << "                        expert-affinity | topo-aware\n"
       << "                        (default least-outstanding;\n"
       << "                        topo-aware requires --topology)\n"
       << "\n"
       << "Interconnect (event-driven link/credit fabric, see\n"
       << "docs/ARCHITECTURE.md):\n"
       << "  --topology T          star | mesh | torus | fat-tree:\n"
       << "                        route dispatch, migration, and drain\n"
       << "                        traffic through a flit-level fabric\n"
       << "                        instead of instantaneous handoff\n"
       << "  --link-gbps G         per-link bandwidth in gigabits/s\n"
       << "                        (requires --topology; default 200)\n"
       << "  --link-latency-us U   per-hop link latency (default 2)\n"
       << "  --link-buffer-flits N per-link input buffer depth, i.e.\n"
       << "                        the credit count (default 64)\n"
       << "\n"
       << "Scenarios:\n"
       << "  --drain-at SEC        drain a node mid-run: its queue\n"
       << "                        re-dispatches, nothing is lost\n"
       << "  --drain-node N        which node drains (requires\n"
       << "                        --drain-at; default 0)\n"
       << "  --rejoin-at SEC       drained node rejoins cold (requires\n"
       << "                        --drain-at)\n"
       << "  --schedule LIST       scripted actions KIND:AT[:ARG] with\n"
       << "                        KIND drain|rejoin|rate, e.g.\n"
       << "                        drain:3:1,rejoin:8:1,rate:12:0.5\n"
       << "                        (--drain-* alias entries fired first)\n"
       << "  --diurnal-amplitude A sinusoidal ramp on the Poisson rate,\n"
       << "                        in [0,1) (open loop only)\n"
       << "  --diurnal-period SEC  ramp period (requires\n"
       << "                        --diurnal-amplitude; default 86400)\n"
       << "  --node-dma-engines L  per-node DMA engine counts, e.g.\n"
       << "                        2,4,2,4 (length = --nodes;\n"
       << "                        heterogeneous cluster)\n"
       << "  --node-region-gb L    per-node expert-region GB list\n"
       << "\n"
       << "Control plane (autoscaling, see README):\n"
       << "  --controller P        static | reactive | target-util\n"
       << "                        (default static: no control loop)\n"
       << "  --controller-tick SEC control-loop period (default 0.5)\n"
       << "  --controller-min N    live-node floor (default 1)\n"
       << "  --controller-max N    live-node ceiling (default --nodes)\n"
       << "  --controller-up-depth D    reactive: scale up above this\n"
       << "                        mean queue depth per live node\n"
       << "                        (default 4)\n"
       << "  --controller-down-depth D  reactive: scale down below\n"
       << "                        this depth (default 0.5)\n"
       << "  --controller-target-util U target-util: hold arrival rate\n"
       << "                        near U x capacity (default 0.7)\n"
       << "  --controller-cooldown N    ticks a scale-down waits after\n"
       << "                        any scale action (default 4)\n"
       << "  --controller-hot K    re-replicate the top-K experts by\n"
       << "                        windowed hits onto live nodes\n"
       << "  --controller-log FILE JSONL decision log, one object per\n"
       << "                        tick\n"
       << "\n"
       << "Capacity planning:\n"
       << "  --plan-capacity       report the smallest node count\n"
       << "                        meeting the targets (needs a pinned\n"
       << "                        demand: --arrival-rate or --trace-in)\n"
       << "  --plan-max-nodes N    search ceiling (default --nodes)\n"
       << "  --plan-p95-ms MS      p95 latency target (required)\n"
       << "  --plan-max-shed-pct P max shed percentage (default 0)\n"
       << "\n"
       << "Faults & degraded mode (chaos layer, see README):\n"
       << "  --faults FILE         replay a JSONL fault schedule: node\n"
       << "                        crashes (queued work re-dispatched or\n"
       << "                        lost), DMA stalls, stragglers, flaky\n"
       << "                        dispatch windows, degraded fabric\n"
       << "                        links (link-degrade needs --topology).\n"
       << "                        Deterministic for any -j N\n"
       << "  --retry-max N         re-dispatch a displaced request up to\n"
       << "                        N times (requires --faults; default 0:\n"
       << "                        displaced work is lost)\n"
       << "  --retry-backoff-ms MS exponential backoff base, doubling\n"
       << "                        per attempt (default 50)\n"
       << "  --retry-budget N      cluster-wide retry cap, -1 unbounded\n"
       << "                        (default -1)\n"
       << "  --hedge               duplicate a dispatch to a second node\n"
       << "                        when the queueing estimate threatens\n"
       << "                        the deadline; loser is cancelled\n"
       << "                        (needs --slo-ms or --trace-in)\n"
       << "  --hedge-threshold F   hedge when estimated delay exceeds\n"
       << "                        F x deadline (requires --hedge;\n"
       << "                        default 1.0)\n"
       << "  --brownout-depth D    shed priority<=P arrivals while mean\n"
       << "                        live queue depth exceeds D (exits at\n"
       << "                        D/2; default off)\n"
       << "  --brownout-prio P     max priority tier shed in brown-out\n"
       << "                        (requires --brownout-depth; default 0)\n"
       << "  --policy-tick-ms MS   hedge/brown-out evaluation period\n"
       << "                        (default 50)\n"
       << "\n"
       << "Execution:\n"
       << "  -j N / --threads N    worker threads for THIS run\n"
       << "                        (default 1). 1 is the bit-exact\n"
       << "                        single-queue path; N > 1 shards the\n"
       << "                        event queue per node (deterministic\n"
       << "                        for any N, clamped to --nodes).\n"
       << "                        Incompatible with --closed-loop,\n"
       << "                        generated --session-* workloads, and\n"
       << "                        --dispatch least-outstanding\n"
       << "\n"
       << "Output:\n"
       << "  --json FILE           write the cluster result as JSON\n"
       << "\n"
       << "Workload (same meaning as `serve`):\n"
       << "  --platform, --experts, --batch, --tokens, --requests,\n"
       << "  --routing, --zipf-s, --seed, --scheduler (fifo | affinity),\n"
       << "  --prefetch, --prefetch-depth, --prefetch-window,\n"
       << "  --dma-engines, --expert-region-gb\n"
       << "\n"
       << "Speculative decoding / PEFT zoo (same meaning as `serve`):\n"
       << "  --spec-decode, --spec-gamma, --spec-accept,\n"
       << "  --spec-draft-ratio, --zoo-adapters, --zoo-rank, "
       << "--zoo-churn\n"
       << "\n"
       << "Workload scenarios (same meaning as `serve`):\n"
       << "  --workload, --tenants, --slo-ms, --session-prob,\n"
       << "  --session-think, --session-turns, --burst-factor,\n"
       << "  --burst-every, --burst-seconds, --trace-out, --trace-in\n"
       << "\n"
       << "Arrivals (cluster-wide):\n"
       << "  --arrival-rate R      TOTAL open-loop rate across the\n"
       << "                        cluster, req/s (default 8 x nodes)\n"
       << "  --closed-loop / --clients / --think   as in `serve`\n";
}

[[noreturn]] void
usage()
{
    std::cerr << "usage: sn40l_run --model NAME --phase "
              << "prefill|decode|train [--seq N] [--batch N]\n"
              << "       [--tp N] [--sockets N] [--config "
              << "fused-ho|fused-so|unfused] [--trace FILE]\n"
              << "   or: sn40l_run serve [flags]    "
              << "(see `sn40l_run serve --help`)\n"
              << "   or: sn40l_run sweep [flags]    "
              << "(see `sn40l_run sweep --help`)\n"
              << "   or: sn40l_run cluster [flags]  "
              << "(see `sn40l_run cluster --help`)\n";
    std::exit(1);
}

// ---------------------------------------------------------- serve

int
runServe(int argc, char **argv)
{
    coe::ServingConfig cfg;
    cfg.mode = coe::ServingMode::EventDriven;
    cfg.batch = 8;
    std::string scheduler_name = "both";

    FlagParser parser("serve", serveHelp);
    WorkloadFlagState wst;
    ArrivalFlagState ast;
    ScenarioFlagState sst;
    SpecZooFlagState szst;
    bool set_experts = false;
    addWorkloadFlags(parser, cfg, wst);
    addArrivalFlags(parser, cfg, ast);
    addScenarioFlags(parser, cfg, sst);
    addCoreServingFlags(parser, cfg, scheduler_name, &set_experts);
    addSpecZooFlags(parser, cfg, szst);

    if (parser.parse(argc, argv, std::cout))
        return 0;
    validateWorkloadFlags(parser, cfg, wst);
    validateArrivalFlags(parser, cfg, ast);
    validateScenarioFlags(parser, cfg, sst, ast);
    validateSpecZooFlags(parser, cfg, szst, set_experts);

    std::vector<coe::SchedulerPolicy> policies;
    if (scheduler_name == "both") {
        // Sessions and SLO shedding feed completions back into the
        // arrival stream, so the two schedulers emit different
        // traffic — recording "both" would silently keep only the
        // last run's trace.
        if (!cfg.workload.traceOut.empty())
            parser.fail("--trace-out records one run; pick a single "
                        "--scheduler (fifo or affinity)");
        policies = {coe::SchedulerPolicy::Fifo,
                    coe::SchedulerPolicy::ExpertAffinity};
    } else {
        policies = {coe::schedulerPolicyFromName(scheduler_name)};
    }

    std::cout << "CoE request stream on " << coe::platformName(cfg.platform)
              << ": " << cfg.numExperts << " experts, "
              << (cfg.arrival == coe::ArrivalProcess::Poisson
                      ? "open-loop Poisson "
                      : "closed-loop ")
              << (cfg.arrival == coe::ArrivalProcess::Poisson
                      ? util::formatDouble(cfg.arrivalRatePerSec, 1) +
                            " req/s"
                      : std::to_string(cfg.clients) + " clients")
              << ", " << cfg.streamRequests << " requests, max batch "
              << cfg.batch << ", "
              << coe::routingDistributionName(cfg.routing)
              << " routing\n\n";

    util::Table table({"Scheduler", "p50", "p95", "p99", "Throughput",
                       "Tokens/s", "Miss rate", "Miss-stall p95",
                       "Queue depth", "Batch occupancy"});
    std::vector<std::string> prefetch_lines;
    std::vector<std::string> shed_lines;
    std::vector<std::string> spec_lines;
    for (coe::SchedulerPolicy policy : policies) {
        cfg.scheduler = policy;
        coe::ServingSimulator sim(cfg);
        coe::ServingResult r = sim.run();
        if (r.oom) {
            table.addRow({coe::schedulerPolicyName(policy), "-", "-", "-",
                          "OUT OF MEMORY"});
            continue;
        }
        const coe::StreamMetrics &m = r.stream;
        if (m.shed > 0 || cfg.workload.sloSeconds > 0.0) {
            shed_lines.push_back(
                std::string(coe::schedulerPolicyName(policy)) + ": " +
                std::to_string(m.shed) + " shed (" +
                util::formatDouble(m.shedRate * 100, 1) +
                "% of arrivals)");
        }
        if (cfg.predictivePrefetch) {
            prefetch_lines.push_back(
                std::string(coe::schedulerPolicyName(policy)) + ": " +
                std::to_string(m.prefetchesIssued) + " issued, " +
                std::to_string(m.prefetchHits) + " hit by a batch, " +
                std::to_string(m.prefetchesCancelled) +
                " cancelled under eviction pressure");
        }
        if (cfg.specDecode.enabled) {
            spec_lines.push_back(
                std::string(coe::schedulerPolicyName(policy)) + ": " +
                std::to_string(m.specSteps) + " draft/verify steps, " +
                util::formatDouble(m.specTokensPerStep, 2) +
                " accepted tokens/step (gamma " +
                std::to_string(cfg.specDecode.gamma) + ", accept " +
                util::formatDouble(cfg.specDecode.acceptRate, 2) + ")");
        }
        table.addRow({coe::schedulerPolicyName(policy),
                      util::formatSeconds(m.p50LatencySeconds),
                      util::formatSeconds(m.p95LatencySeconds),
                      util::formatSeconds(m.p99LatencySeconds),
                      util::formatDouble(m.throughputRequestsPerSec, 2) +
                          " req/s",
                      util::formatDouble(m.throughputTokensPerSec, 1),
                      util::formatDouble(r.missRate * 100, 1) + "%",
                      util::formatSeconds(m.p95SwitchStallSeconds),
                      util::formatDouble(m.meanQueueDepth, 1) + " avg / " +
                          util::formatDouble(m.maxQueueDepth, 0) + " max",
                      util::formatDouble(m.meanBatchOccupancy, 2)});
    }
    table.print(std::cout);
    if (!prefetch_lines.empty()) {
        std::cout << "\nSpeculative prefetch:\n";
        for (const std::string &line : prefetch_lines)
            std::cout << "  " << line << "\n";
    }
    if (!shed_lines.empty()) {
        std::cout << "\nSLO admission control:\n";
        for (const std::string &line : shed_lines)
            std::cout << "  " << line << "\n";
    }
    if (!spec_lines.empty()) {
        std::cout << "\nSpeculative decoding:\n";
        for (const std::string &line : spec_lines)
            std::cout << "  " << line << "\n";
    }
    if (!cfg.workload.traceOut.empty())
        std::cout << "\nwrote request trace to " << cfg.workload.traceOut
                  << "\n";
    return 0;
}

// ---------------------------------------------------------- sweep

int
runSweepCmd(int argc, char **argv)
{
    coe::SweepGrid grid;
    grid.base.mode = coe::ServingMode::EventDriven;
    grid.base.batch = 8;
    grid.base.arrivalRatePerSec = 8.0;
    std::string scheduler_name = "both";
    std::string json_path;
    int jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0)
        jobs = 1;

    FlagParser parser("sweep", sweepHelp);
    WorkloadFlagState wst;
    ScenarioFlagState sst;
    FaultFlagState fst;
    SpecZooFlagState szst;
    addWorkloadFlags(parser, grid.base, wst);
    addScenarioFlags(parser, grid.base, sst);
    addFaultFlags(parser, grid.faultPolicy, fst);
    addSpecZooFlags(parser, grid.base, szst);
    bool set_placement = false, set_dispatch = false;
    parser.value("--experts", [&](const std::string &v) {
        grid.expertCounts = parseList<int>(parser, v, &parseInt);
    });
    parser.value("--arrival-rate", [&](const std::string &v) {
        grid.arrivalRates = parseList<double>(parser, v, &parseDouble);
    });
    parser.value("--batch", [&](const std::string &v) {
        grid.batchSizes = parseList<int>(parser, v, &parseInt);
    });
    parser.value("--seeds", [&](const std::string &v) {
        grid.seeds = parseList<std::uint64_t>(parser, v, &parseUint64);
    });
    parser.value("--nodes", [&](const std::string &v) {
        grid.nodeCounts = parseList<int>(parser, v, &parseInt);
    });
    parser.value("--placement", [&](const std::string &v) {
        grid.placements = parseList<coe::PlacementPolicy>(
            parser, v, &coe::placementPolicyFromName);
        set_placement = true;
    });
    parser.value("--dispatch", [&](const std::string &v) {
        grid.dispatch = coe::dispatchPolicyFromName(v);
        set_dispatch = true;
    });
    parser.value("--scheduler",
                 [&](const std::string &v) { scheduler_name = v; });
    parser.value("-j", [&](const std::string &v) { jobs = parseInt(v); });
    parser.value("--jobs",
                 [&](const std::string &v) { jobs = parseInt(v); });
    parser.value("--json", [&](const std::string &v) { json_path = v; });

    if (parser.parse(argc, argv, std::cout))
        return 0;
    validateWorkloadFlags(parser, grid.base, wst);
    // sweep has no --closed-loop/--arrival-rate scalar flags (the
    // rate is a grid axis), so the shared arrival-state checks get a
    // default state; the axis-specific conflicts are checked below.
    validateScenarioFlags(parser, grid.base, sst, ArrivalFlagState{});
    // sweep's --experts is a grid axis: a non-empty axis list plays
    // the scalar flag's role in the --zoo-adapters conflict check.
    validateSpecZooFlags(parser, grid.base, szst,
                         !grid.expertCounts.empty());
    validateFaultFlags(parser, grid.faultPolicy, fst, grid.base);
    if ((fst.setFaults || grid.faultPolicy.anyEnabled()) &&
        grid.nodeCounts.empty())
        parser.fail("--faults and the degraded-mode flags act on the "
                    "cluster dispatch layer; they require --nodes");
    if (fst.setFaults) {
        // Parse once; every grid point (and worker thread) replays the
        // same immutable schedule, mirroring the --trace-in pattern.
        grid.faults =
            std::make_shared<const std::vector<coe::FaultEvent>>(
                coe::loadFaultSchedule(fst.faultsPath));
    }
    if (!grid.base.workload.traceOut.empty())
        parser.fail("--trace-out is ambiguous across sweep points; "
                    "record a trace with `serve` or `cluster` and "
                    "replay it here with --trace-in");
    if (!grid.base.workload.traceIn.empty() &&
        !grid.arrivalRates.empty())
        parser.fail("--trace-in fixes the arrival stream; an "
                    "--arrival-rate axis does not apply");
    if ((set_placement || set_dispatch) && grid.nodeCounts.empty())
        parser.fail("--placement/--dispatch require --nodes");
    if (jobs <= 0)
        parser.fail("--jobs must be at least 1");
    if (!grid.base.workload.traceIn.empty()) {
        // Parse the trace once here; every grid point (and worker
        // thread) shares the immutable entries instead of re-reading
        // the file per point.
        grid.base.workload.traceEntries =
            std::make_shared<const std::vector<coe::TraceEntry>>(
                coe::loadTrace(grid.base.workload.traceIn));
    }

    if (scheduler_name == "both") {
        grid.policies = {coe::SchedulerPolicy::Fifo,
                         coe::SchedulerPolicy::ExpertAffinity};
    } else {
        grid.policies = {coe::schedulerPolicyFromName(scheduler_name)};
    }

    std::vector<coe::SweepPoint> points = grid.points();
    std::cout << "CoE sweep on " << coe::platformName(grid.base.platform)
              << ": " << points.size() << " points x "
              << grid.base.streamRequests << " requests, " << jobs
              << " worker thread" << (jobs == 1 ? "" : "s") << "\n\n";

    auto start = std::chrono::steady_clock::now();
    std::vector<coe::SweepPointResult> results =
        coe::runSweep(points, jobs);
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();

    bool clustered = !grid.nodeCounts.empty();
    std::vector<std::string> header = {"Experts", "Rate", "Batch",
                                       "Sched", "Seed"};
    if (clustered) {
        header.insert(header.begin(), "Placement");
        header.insert(header.begin(), "Nodes");
    }
    for (const char *col : {"p50", "p95", "p99", "Throughput",
                            "Miss rate", "Events"})
        header.push_back(col);
    if (clustered)
        header.push_back("Imbalance");
    util::Table table(header);

    std::uint64_t total_events = 0;
    for (const coe::SweepPointResult &r : results) {
        const coe::ServingConfig &cfg = r.point.cfg;
        std::vector<std::string> row;
        if (clustered) {
            row.push_back(std::to_string(r.point.nodes));
            row.push_back(coe::placementPolicyName(r.point.placement));
        }
        row.push_back(std::to_string(cfg.numExperts));
        // The per-node rate the grid asked for, not the node-scaled
        // total — points stay comparable across node counts.
        row.push_back(util::formatDouble(r.point.ratePerNode, 1));
        row.push_back(std::to_string(cfg.batch));
        row.push_back(coe::schedulerPolicyName(cfg.scheduler));
        row.push_back(std::to_string(cfg.seed));
        if (r.result.oom) {
            row.insert(row.end(), {"-", "-", "-", "OUT OF MEMORY", "-",
                                   "-"});
            if (clustered)
                row.push_back("-");
            table.addRow(row);
            continue;
        }
        const coe::StreamMetrics &m = r.result.stream;
        total_events += r.eventsExecuted;
        row.push_back(util::formatSeconds(m.p50LatencySeconds));
        row.push_back(util::formatSeconds(m.p95LatencySeconds));
        row.push_back(util::formatSeconds(m.p99LatencySeconds));
        row.push_back(util::formatDouble(m.throughputRequestsPerSec, 2) +
                      " req/s");
        row.push_back(util::formatDouble(r.result.missRate * 100, 1) +
                      "%");
        row.push_back(std::to_string(r.eventsExecuted));
        if (clustered)
            row.push_back(util::formatDouble(r.loadImbalance, 2) + "x");
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n" << points.size() << " points, " << total_events
              << " simulator events in " << util::formatDouble(wall, 2)
              << " s ("
              << util::formatDouble(
                     wall > 0.0 ? static_cast<double>(total_events) / wall
                                : 0.0,
                     0)
              << " events/s across " << jobs << " threads)\n";

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out)
            parser.fail("cannot write " + json_path);
        coe::writeSweepJson(out, results, jobs, wall);
        std::cout << "wrote " << json_path << "\n";
    }
    return 0;
}

// -------------------------------------------------------- cluster

/**
 * Capacity planner: re-run the demand against growing static
 * clusters and report the smallest node count meeting the p95 and
 * shed targets. Exits non-zero when nothing up to the ceiling does.
 */
int
runPlanCapacity(const FlagParser &parser, coe::ClusterConfig cfg,
                const PlanFlagState &plan, bool set_rate)
{
    if (cfg.node.arrival == coe::ArrivalProcess::ClosedLoop)
        parser.fail("--plan-capacity sizes for offered load; "
                    "closed-loop demand self-paces, drop "
                    "--closed-loop");
    if (!set_rate && cfg.node.workload.traceIn.empty())
        parser.fail("--plan-capacity needs the demand pinned: give an "
                    "explicit --arrival-rate or a --trace-in trace "
                    "(the default rate scales with the node count)");
    if (!cfg.overrides.empty())
        parser.fail("--plan-capacity varies the node count; per-node "
                    "override lists do not apply");
    if (!cfg.actions.empty())
        parser.fail("--plan-capacity runs clean static clusters; drop "
                    "--drain-at/--schedule");
    if (cfg.controller.policy != coe::ControllerPolicy::Static)
        parser.fail("--plan-capacity provisions statically; drop "
                    "--controller");
    if (!cfg.node.workload.traceOut.empty())
        parser.fail("--plan-capacity runs the demand several times; "
                    "--trace-out is ambiguous");

    int max_nodes = plan.setMaxNodes ? plan.maxNodes : cfg.nodes;
    if (!cfg.node.workload.traceIn.empty()) {
        // Parse once; every candidate node count replays the same
        // immutable entries.
        cfg.node.workload.traceEntries =
            std::make_shared<const std::vector<coe::TraceEntry>>(
                coe::loadTrace(cfg.node.workload.traceIn));
    }

    std::cout << "Capacity plan: smallest cluster meeting p95 <= "
              << util::formatDouble(plan.p95Ms, 1) << " ms, shed <= "
              << util::formatDouble(plan.maxShedPct, 1) << "% over "
              << (cfg.node.workload.replay()
                      ? "the replayed trace"
                      : util::formatDouble(cfg.node.arrivalRatePerSec,
                                           1) +
                            " req/s")
              << " (" << cfg.node.streamRequests << " requests, up to "
              << max_nodes << " nodes)\n\n";

    util::Table table(
        {"Nodes", "p95", "Shed", "Node-hours", "Verdict"});
    int chosen = -1;
    coe::ClusterResult chosen_result;
    for (int n = 1; n <= max_nodes; ++n) {
        coe::ClusterConfig pc = cfg;
        pc.nodes = n;
        coe::ClusterSimulator sim(pc);
        coe::ClusterResult r = sim.run();
        if (r.oom) {
            table.addRow({std::to_string(n), "-", "-", "-",
                          "OUT OF MEMORY"});
            continue;
        }
        double p95_ms = r.stream.p95LatencySeconds * 1000.0;
        double shed_pct = r.stream.shedRate * 100.0;
        bool met = p95_ms <= plan.p95Ms && shed_pct <= plan.maxShedPct;
        table.addRow({std::to_string(n),
                      util::formatSeconds(r.stream.p95LatencySeconds),
                      util::formatDouble(shed_pct, 1) + "%",
                      util::formatDouble(r.nodeHours, 3),
                      met ? "meets SLO" : "misses SLO"});
        if (met) {
            chosen = n;
            chosen_result = r;
            break; // more nodes only cost more
        }
    }
    table.print(std::cout);

    if (chosen < 0) {
        std::cout << "\nno node count up to " << max_nodes
                  << " meets the targets; raise --plan-max-nodes or "
                  << "relax the SLO\n";
        return 1;
    }
    std::cout << "\nPlan: " << chosen << " node"
              << (chosen == 1 ? "" : "s") << " ("
              << util::formatDouble(chosen_result.nodeHours, 3)
              << " node-hours, p95 "
              << util::formatSeconds(
                     chosen_result.stream.p95LatencySeconds)
              << ", "
              << util::formatDouble(chosen_result.stream.shedRate * 100,
                                    1)
              << "% shed)\n";
    return 0;
}

int
runClusterCmd(int argc, char **argv)
{
    coe::ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.placement = coe::PlacementPolicy::ReplicateHotPartitionCold;
    cfg.dispatch = coe::DispatchPolicy::LeastOutstanding;
    cfg.node.mode = coe::ServingMode::EventDriven;
    cfg.node.batch = 8;
    cfg.node.scheduler = coe::SchedulerPolicy::ExpertAffinity;
    std::string scheduler_name = "affinity";

    FlagParser parser("cluster", clusterHelp);
    WorkloadFlagState wst;
    ArrivalFlagState ast;
    ScenarioFlagState sst;
    ControllerFlagState cst;
    PlanFlagState plan;
    ExecFlagState exec;
    FaultFlagState fst;
    FabricFlagState fab;
    SpecZooFlagState szst;
    bool set_experts = false;
    addWorkloadFlags(parser, cfg.node, wst);
    addArrivalFlags(parser, cfg.node, ast);
    addScenarioFlags(parser, cfg.node, sst);
    addCoreServingFlags(parser, cfg.node, scheduler_name, &set_experts);
    addSpecZooFlags(parser, cfg.node, szst);
    addControllerFlags(parser, cfg.controller, cst);
    addPlanFlags(parser, plan);
    addExecFlags(parser, exec);
    addFaultFlags(parser, cfg.faultPolicy, fst);
    addFabricFlags(parser, cfg.fabric, fab);

    bool set_rate = false, set_hot = false;
    bool set_drain_at = false, set_drain_node = false;
    bool set_rejoin = false, set_diurnal_amp = false;
    bool set_diurnal_period = false;
    double drain_at = 0.0, rejoin_at = 0.0;
    int drain_node = 0;
    std::vector<int> node_dma;
    std::vector<double> node_region_gb;
    std::string schedule_csv;
    std::string json_path;

    parser.value("--nodes", [&](const std::string &v) {
        cfg.nodes = parseInt(v);
    });
    parser.value("--placement", [&](const std::string &v) {
        cfg.placement = coe::placementPolicyFromName(v);
    });
    parser.value("--dispatch", [&](const std::string &v) {
        cfg.dispatch = coe::dispatchPolicyFromName(v);
    });
    parser.value("--hot-experts", [&](const std::string &v) {
        cfg.hotExperts = parseInt(v);
        set_hot = true;
    });
    parser.value("--drain-at", [&](const std::string &v) {
        drain_at = parseDouble(v);
        set_drain_at = true;
    });
    parser.value("--drain-node", [&](const std::string &v) {
        drain_node = parseInt(v);
        set_drain_node = true;
    });
    parser.value("--rejoin-at", [&](const std::string &v) {
        rejoin_at = parseDouble(v);
        set_rejoin = true;
    });
    parser.value("--schedule", [&](const std::string &v) {
        schedule_csv = v;
    });
    parser.value("--diurnal-amplitude", [&](const std::string &v) {
        cfg.diurnalAmplitude = parseDouble(v);
        set_diurnal_amp = true;
    });
    parser.value("--diurnal-period", [&](const std::string &v) {
        cfg.diurnalPeriodSeconds = parseDouble(v);
        set_diurnal_period = true;
    });
    parser.value("--node-dma-engines", [&](const std::string &v) {
        node_dma = parseList<int>(parser, v, &parseInt);
    });
    parser.value("--node-region-gb", [&](const std::string &v) {
        node_region_gb = parseList<double>(parser, v, &parseDouble);
    });
    parser.value("--json", [&](const std::string &v) { json_path = v; });

    if (parser.parse(argc, argv, std::cout))
        return 0;
    validateWorkloadFlags(parser, cfg.node, wst);
    validateArrivalFlags(parser, cfg.node, ast);
    validateScenarioFlags(parser, cfg.node, sst, ast);
    validateSpecZooFlags(parser, cfg.node, szst, set_experts);
    validateControllerFlags(parser, cfg.controller, cst);
    validatePlanFlags(parser, plan);
    validateFaultFlags(parser, cfg.faultPolicy, fst, cfg.node);
    validateFabricFlags(parser, cfg.fabric, fab, cfg.dispatch);
    validateClusterExecFlags(parser, exec, cfg.node, cfg.dispatch, ast,
                             sst);
    if (exec.threads > cfg.nodes && cfg.nodes > 0) {
        std::cerr << "warning: --threads " << exec.threads
                  << " exceeds --nodes " << cfg.nodes
                  << "; clamping to one worker per node\n";
        exec.threads = cfg.nodes;
    }
    cfg.threads = exec.threads;
    // The diurnal ramp shapes the arrival generator, which a replay
    // bypasses entirely — reject it like the other generator flags
    // instead of silently replaying the flat recorded stream.
    if (!cfg.node.workload.traceIn.empty() &&
        (set_diurnal_amp || set_diurnal_period))
        parser.fail("--trace-in replays a recorded request stream; "
                    "--diurnal-amplitude/--diurnal-period do not "
                    "apply");
    // The shared arrival group tracked whether --arrival-rate was set;
    // if not, the open-loop default scales with the cluster size.
    set_rate = ast.setArrivalRate;

    if (cfg.nodes <= 0)
        parser.fail("--nodes must be at least 1");
    if (scheduler_name == "both")
        parser.fail("cluster runs a single scheduler; pick fifo or "
                    "affinity");
    cfg.node.scheduler = coe::schedulerPolicyFromName(scheduler_name);
    if (set_hot &&
        cfg.placement != coe::PlacementPolicy::ReplicateHotPartitionCold)
        parser.fail("--hot-experts requires --placement replicate-hot");
    // Written so NaN fails too: every comparison with NaN is false.
    if (set_drain_at && !(drain_at > 0.0))
        parser.fail("--drain-at must be positive (the drain fires "
                    "mid-run)");
    if ((set_drain_node || set_rejoin) && !set_drain_at)
        parser.fail("--drain-node/--rejoin-at require --drain-at");
    if (set_rejoin && !(rejoin_at > drain_at))
        parser.fail("--rejoin-at must come after --drain-at");
    if (set_diurnal_period && !set_diurnal_amp)
        parser.fail("--diurnal-period requires --diurnal-amplitude");
    // --drain-at/--drain-node/--rejoin-at alias a drain (and a cold
    // rejoin) of one node, fired ahead of the --schedule entries.
    if (set_drain_at)
        cfg.actions.push_back(
            {drain_at, coe::ActionKind::Drain, drain_node});
    if (set_rejoin)
        cfg.actions.push_back(
            {rejoin_at, coe::ActionKind::Rejoin, drain_node});
    std::vector<coe::ScheduledAction> scheduled;
    if (!schedule_csv.empty())
        scheduled = parseScheduleList(parser, schedule_csv);
    cfg.actions.insert(cfg.actions.end(), scheduled.begin(),
                       scheduled.end());
    if (!node_dma.empty() &&
        static_cast<int>(node_dma.size()) != cfg.nodes)
        parser.fail("--node-dma-engines needs exactly --nodes entries");
    if (!node_region_gb.empty() &&
        static_cast<int>(node_region_gb.size()) != cfg.nodes)
        parser.fail("--node-region-gb needs exactly --nodes entries");
    for (int n = 0; n < cfg.nodes; ++n) {
        coe::ClusterNodeOverride o;
        o.node = n;
        if (!node_dma.empty())
            o.dmaEngines = node_dma[static_cast<std::size_t>(n)];
        if (!node_region_gb.empty()) {
            double gb = node_region_gb[static_cast<std::size_t>(n)];
            if (gb <= 0.0)
                parser.fail("--node-region-gb entries must be positive");
            o.expertRegionBytes = static_cast<std::int64_t>(gb * 1e9);
        }
        if (o.dmaEngines > 0 || o.expertRegionBytes > 0)
            cfg.overrides.push_back(o);
    }
    if (!set_rate && cfg.node.arrival == coe::ArrivalProcess::Poisson)
        cfg.node.arrivalRatePerSec = 8.0 * cfg.nodes;
    if (fst.setFaults) {
        // Parse (and strictly validate) once; the simulator re-checks
        // the schedule against the final node count.
        cfg.faults =
            std::make_shared<const std::vector<coe::FaultEvent>>(
                coe::loadFaultSchedule(fst.faultsPath));
    }

    if (plan.plan) {
        if (!json_path.empty())
            parser.fail("--json reports a single cluster run; it does "
                        "not combine with --plan-capacity");
        if (fst.setFaults || cfg.faultPolicy.anyEnabled())
            parser.fail("--plan-capacity sizes clean static clusters; "
                        "drop --faults and the degraded-mode flags");
        return runPlanCapacity(parser, cfg, plan, set_rate);
    }

    std::cout << "CoE cluster on "
              << coe::platformName(cfg.node.platform) << ": "
              << cfg.nodes << " nodes, " << cfg.node.numExperts
              << " experts, placement "
              << coe::placementPolicyName(cfg.placement) << ", dispatch "
              << coe::dispatchPolicyName(cfg.dispatch) << ", "
              << (cfg.node.arrival == coe::ArrivalProcess::Poisson
                      ? "open-loop " +
                            util::formatDouble(cfg.node.arrivalRatePerSec,
                                               1) +
                            " req/s"
                      : "closed-loop " + std::to_string(cfg.node.clients) +
                            " clients")
              << (cfg.diurnalAmplitude > 0.0
                      ? " (diurnal x" +
                            util::formatDouble(1.0 + cfg.diurnalAmplitude,
                                               2) +
                            " peak)"
                      : "")
              << ", " << cfg.node.streamRequests << " requests, "
              << coe::routingDistributionName(cfg.node.routing)
              << " routing"
              << (cfg.controller.policy != coe::ControllerPolicy::Static
                      ? std::string(", controller ") +
                            coe::controllerPolicyName(
                                cfg.controller.policy)
                      : "")
              << (cfg.fabric.enabled
                      ? std::string(", fabric ") +
                            sim::topologyName(cfg.fabric.topology) +
                            " (" +
                            util::formatDouble(cfg.fabric.linkGbps, 0) +
                            " Gb/s links, " +
                            util::formatDouble(cfg.fabric.linkLatencyUs,
                                               1) +
                            " us)"
                      : "")
              << "\n\n";

    coe::ClusterSimulator sim(cfg);
    coe::ClusterResult r = sim.run();
    if (r.oom) {
        std::cout << "OUT OF MEMORY: a node's placed experts exceed its "
                  << "backing capacity\n";
        return 1;
    }

    util::Table table({"Node", "Placed", "Dispatched", "Completed",
                       "Shed", "Batches", "Miss rate", "p50", "p95",
                       "Queue depth", "Peak HBM"});
    for (const coe::ClusterNodeMetrics &nm : r.nodes) {
        table.addRow({std::to_string(nm.node) +
                          (nm.drained ? " (drained)" : ""),
                      std::to_string(nm.placedExperts),
                      std::to_string(nm.dispatched),
                      std::to_string(nm.completed),
                      std::to_string(nm.shed),
                      std::to_string(nm.batches),
                      util::formatDouble(nm.missRate * 100, 1) + "%",
                      util::formatSeconds(nm.p50LatencySeconds),
                      util::formatSeconds(nm.p95LatencySeconds),
                      util::formatDouble(nm.meanQueueDepth, 1) +
                          " avg / " +
                          util::formatDouble(nm.maxQueueDepth, 0) +
                          " max",
                      util::formatBytes(static_cast<double>(
                          nm.peakResidentBytes))});
    }
    table.print(std::cout);

    const coe::StreamMetrics &m = r.stream;
    std::cout << "\nCluster: p50 "
              << util::formatSeconds(m.p50LatencySeconds) << ", p95 "
              << util::formatSeconds(m.p95LatencySeconds) << ", p99 "
              << util::formatSeconds(m.p99LatencySeconds) << ", "
              << util::formatDouble(m.throughputRequestsPerSec, 2)
              << " req/s, miss rate "
              << util::formatDouble(r.missRate * 100, 1)
              << "%, load imbalance "
              << util::formatDouble(r.loadImbalance, 2) << "x";
    if (m.shed > 0 || cfg.node.workload.sloSeconds > 0.0)
        std::cout << ", " << m.shed << " shed ("
                  << util::formatDouble(m.shedRate * 100, 1)
                  << "% of arrivals)";
    std::cout << "\n";
    std::cout << "Placement: " << r.expertReplicas << " expert replicas, "
              << util::formatBytes(r.placedBytesTotal) << " placed, "
              << util::formatBytes(
                     static_cast<double>(r.peakResidentBytesTotal))
              << " peak resident HBM\n";
    std::cout << "Provisioning: "
              << util::formatDouble(r.nodeHours, 3) << " node-hours ("
              << util::formatDouble(r.nodeSecondsLive, 1)
              << " node-seconds live)\n";
    if (cfg.controller.policy != coe::ControllerPolicy::Static) {
        std::cout << "Controller: "
                  << coe::controllerPolicyName(cfg.controller.policy)
                  << ", " << r.controllerTicks << " ticks, "
                  << r.controllerActions << " actions";
        if (!cfg.controller.logPath.empty())
            std::cout << ", log " << cfg.controller.logPath;
        std::cout << "\n";
    }
    if (cfg.fabric.enabled) {
        std::cout << "Interconnect: "
                  << sim::topologyName(cfg.fabric.topology) << ", "
                  << r.networkMessages << " messages ("
                  << r.networkFlits << " flits), "
                  << r.networkCreditStalls << " credit stalls, link "
                  << "utilization "
                  << util::formatDouble(
                         r.networkMeanLinkUtilization * 100, 1)
                  << "% mean / "
                  << util::formatDouble(
                         r.networkMaxLinkUtilization * 100, 1)
                  << "% max\n";
    }
    if (cfg.faults || cfg.faultPolicy.anyEnabled()) {
        std::cout << "Chaos: " << r.faultsInjected
                  << " faults injected (" << r.crashes << " crash"
                  << (r.crashes == 1 ? "" : "es") << "), " << m.lost
                  << " lost, " << m.retried << " retried, " << m.hedged
                  << " hedged (" << m.hedgeWon << " hedge win"
                  << (m.hedgeWon == 1 ? "" : "s") << ")\n";
    }
    if (!scheduled.empty())
        std::cout << "Schedule: " << scheduled.size() << " scripted action"
                  << (scheduled.size() == 1 ? "" : "s") << " applied, "
                  << r.redispatched << " requests re-dispatched\n";
    if (set_drain_at) {
        std::cout << "Drain: node " << drain_node << " drained at "
                  << util::formatDouble(drain_at, 1) << " s, "
                  << r.redispatched << " queued requests re-dispatched"
                  << (set_rejoin ? ", rejoined cold at " +
                                       util::formatDouble(rejoin_at, 1) +
                                       " s"
                                 : ", no rejoin")
                  << "\n";
    }
    if (!cfg.node.workload.traceOut.empty())
        std::cout << "wrote request trace to "
                  << cfg.node.workload.traceOut << "\n";
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out)
            parser.fail("cannot write " + json_path);
        coe::writeClusterJson(out, cfg, r);
        std::cout << "wrote " << json_path << "\n";
    }
    return 0;
}

} // namespace

int
run(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
        return runServe(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "sweep") == 0)
        return runSweepCmd(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "cluster") == 0)
        return runClusterCmd(argc, argv);

    std::string model_name = "llama2-7b";
    std::string phase_name = "decode";
    std::string config_name = "fused-ho";
    std::string trace_path;
    int seq = 2048, batch = 1, tp = 8, sockets = 8;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--model") model_name = next();
        else if (arg == "--phase") phase_name = next();
        else if (arg == "--seq") seq = parseInt(next());
        else if (arg == "--batch") batch = parseInt(next());
        else if (arg == "--tp") tp = parseInt(next());
        else if (arg == "--sockets") sockets = parseInt(next());
        else if (arg == "--config") config_name = next();
        else if (arg == "--trace") trace_path = next();
        else usage();
    }

    models::WorkloadSpec spec;
    spec.model = modelByName(model_name);
    spec.seqLen = seq;
    spec.batch = batch;
    spec.tensorParallel = tp;
    if (phase_name == "prefill") spec.phase = models::Phase::Prefill;
    else if (phase_name == "decode") spec.phase = models::Phase::Decode;
    else if (phase_name == "train") spec.phase = models::Phase::Train;
    else usage();

    runtime::RunConfig config;
    if (config_name == "fused-ho") config = runtime::RunConfig::FusedHO;
    else if (config_name == "fused-so")
        config = runtime::RunConfig::FusedSO;
    else if (config_name == "unfused")
        config = runtime::RunConfig::Unfused;
    else usage();

    graph::DataflowGraph g = models::buildTransformer(spec);
    arch::NodeConfig node_cfg = arch::NodeConfig::sn40lNode(sockets);

    // Compile + run (with optional tracing, mirroring runWorkload).
    compiler::CompileOptions options;
    options.fusion.tensorParallel = tp;
    options.fusion.mode = config == runtime::RunConfig::Unfused
        ? compiler::ExecMode::RduUnfused
        : compiler::ExecMode::RduFused;
    compiler::Program prog = compiler::compile(g, node_cfg.chip, options);

    sim::EventQueue eq;
    runtime::RduNode node(eq, node_cfg);
    runtime::Executor executor(node);
    runtime::TraceWriter trace;
    if (!trace_path.empty())
        executor.setTrace(&trace);
    runtime::ExecutionResult result = executor.run(
        prog, config == runtime::RunConfig::FusedHO
                  ? arch::Orchestration::Hardware
                  : arch::Orchestration::Software);

    util::Table report({"Quantity", "Value"});
    report.addRow({"Workload", spec.str()});
    report.addRow({"Config", runtime::runConfigName(config)});
    report.addRow({"Sockets", std::to_string(sockets) +
                                  " (TP" + std::to_string(tp) + ")"});
    report.addRow({"Graph ops", std::to_string(g.numOps())});
    report.addRow({"FLOPs", util::formatDouble(g.totalFlops() / 1e12, 2) +
                                " TFLOP"});
    report.addRow({"Weights", util::formatBytes(g.weightBytes())});
    report.addRow({"Kernels", std::to_string(prog.kernels.size())});
    report.addRow({"Launches", std::to_string(prog.totalLaunches)});
    report.addRow({"HBM resident/socket",
                   util::formatBytes(prog.hbmResidentBytes)});
    report.addRow({"DDR spill/socket",
                   util::formatBytes(prog.ddrResidentBytes)});
    report.addRow({"Total time", util::formatSeconds(result.seconds())});
    report.addRow({"  launch overhead",
                   util::formatSeconds(result.launchSeconds())});
    report.addRow({"  execution",
                   util::formatSeconds(result.execSeconds())});
    if (spec.phase == models::Phase::Decode) {
        report.addRow({"Tokens/s/user",
                       util::formatDouble(1.0 / result.seconds(), 0)});
    }
    report.print(std::cout);

    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        trace.writeJson(out);
        std::cout << "\nwrote " << trace.eventCount()
                  << " trace events to " << trace_path
                  << " (open in chrome://tracing or Perfetto)\n";
    }
    return 0;
}

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const tools::FlagUsageError &e) {
        std::cerr << "error: " << e.what() << "\n"
                  << "run `sn40l_run " << e.subcommand()
                  << " --help` for the flag reference\n";
    } catch (const std::invalid_argument &) {
        std::cerr << "error: malformed numeric argument\n";
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
    }
    return 1;
}

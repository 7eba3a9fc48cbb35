/**
 * @file
 * Shared sn40l_run flag tables. The serve / sweep / cluster
 * subcommands register the same workload, arrival, scenario, and
 * core-serving flags; those groups live here so each flag is defined
 * exactly once, with one --help line. Each group also registers its
 * cross-flag contradictions with FlagParser::check() and asks
 * FlagParser::given() which flags the command line named, so every
 * subcommand rejects the same contradictions with the same messages
 * and no caller tracks "was it set" by hand. The control-plane flags
 * (--controller-*, --schedule, --plan-*) are declared here too.
 *
 * Range checks do not live here: the config validators
 * (validateServingConfig, validateClusterConfig) run on the assembled
 * config and name each field and its flag. This layer keeps only
 * cross-flag contradictions, checks on values with no config field
 * (--plan-*), and the few flags that are stricter than their field
 * because the config reads 0 as "off".
 *
 * Everything is a header-only helper over tools::FlagParser; the
 * functions only wire callbacks, so including this costs nothing at
 * runtime.
 */

#ifndef SN40L_TOOLS_CLI_CONFIG_H
#define SN40L_TOOLS_CLI_CONFIG_H

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "coe/controller.h"
#include "coe/serving.h"
#include "coe/workload.h"

#include "flag_parser.h"

namespace sn40l::tools {

/**
 * GB to bytes for --expert-region-gb and --node-region-gb. The config
 * reads 0 bytes as "platform default", so the flags demand at least
 * one byte; the range check comes before the cast, since NaN or a
 * huge double has no int64 value.
 */
inline std::int64_t
regionBytes(const FlagParser &p, const char *flag, double gb)
{
    double bytes = gb * 1e9;
    if (!(bytes >= 1.0 && bytes < 0x1p63)) {
        std::ostringstream msg;
        msg << flag << " must be positive and finite (at least 1 byte, "
            << "below 9.2e9 GB), got " << gb;
        p.fail(msg.str());
    }
    return static_cast<std::int64_t>(bytes);
}

/**
 * Parse a --trace-in file once, before anything is printed: a bad
 * file fails up front, and every run of the command (both serve
 * schedulers, each sweep point and worker, each capacity-plan node
 * count) replays the same immutable entries.
 */
inline void
loadTraceOnce(coe::WorkloadConfig &w)
{
    if (!w.traceIn.empty())
        w.traceEntries = std::make_shared<const std::vector<coe::TraceEntry>>(
            coe::loadTrace(w.traceIn));
}

/**
 * Open each non-empty output path in @p paths (--json, --trace,
 * --trace-out, --controller-log) before anything is printed: a path
 * that cannot be written, say under a missing directory, fails the
 * command up front instead of after the whole run. The probe leaves
 * no trace: it appends nothing to an existing file and removes a file
 * it had to create, so a run that fails later writes nothing.
 */
inline void
requireWritable(const FlagParser &p,
                std::initializer_list<std::string> paths)
{
    for (const std::string &path : paths) {
        if (path.empty())
            continue;
        std::error_code ec;
        bool existed = std::filesystem::exists(path, ec);
        if (!std::ofstream(path, std::ios::app))
            p.fail("cannot write " + path);
        if (!existed)
            std::filesystem::remove(path, ec);
    }
}

/** Whether the last parse saw any of @p names. */
inline bool
anyGiven(const FlagParser &p, std::initializer_list<const char *> names)
{
    for (const char *name : names)
        if (p.given(name))
            return true;
    return false;
}

/** The flag that made the run closed-loop, as errors name it. */
inline std::string
closedLoopFlag(const FlagParser &p)
{
    return p.given("--closed-loop") ? "--closed-loop"
                                    : "--workload closed-loop";
}

// ------------------------------------------- shared flag groups

/**
 * Workload/memory flags shared by serve, sweep, and cluster: the
 * platform, the per-prompt shape, the routing distribution, and the
 * expert-streaming memory system.
 */
inline void
addWorkloadFlags(FlagParser &p, coe::ServingConfig &cfg)
{
    p.group("Workload");
    p.value("--platform", "P", "sn40l | dgx-a100 | dgx-h100 (default sn40l)",
            [&](const std::string &v) {
                cfg.platform = coe::platformFromName(v);
            });
    p.value("--tokens", "N", "output tokens per prompt (default 20)",
            [&](const std::string &v) { cfg.outputTokens = parseInt(v); });
    p.value("--requests", "N",
            "requests per run or sweep point (default 512)",
            [&](const std::string &v) { cfg.streamRequests = parseInt(v); });
    p.value("--routing", "D",
            "uniform | zipf | round-robin (default uniform)",
            [&](const std::string &v) {
                cfg.routing = coe::routingDistributionFromName(v);
            });
    p.value("--zipf-s", "S", "Zipf skew (requires --routing zipf; default 1)",
            [&](const std::string &v) { cfg.zipfS = parseDouble(v); });
    p.group("Memory system");
    p.flag("--prefetch",
           "prefetch queued requests' experts at low DMA priority",
           [&]() { cfg.predictivePrefetch = true; });
    p.value("--prefetch-depth", "N",
            "max outstanding prefetches (default 4)",
            [&](const std::string &v) { cfg.prefetchDepth = parseInt(v); });
    p.value("--prefetch-window", "N",
            "queue entries scanned per prefetch (default 0 = all)",
            [&](const std::string &v) { cfg.prefetchWindow = parseInt(v); });
    p.value("--dma-engines", "N", "DMA engines streaming experts (default 2)",
            [&](const std::string &v) { cfg.dmaEngines = parseInt(v); });
    p.value("--expert-region-gb", "G",
            "HBM expert region in GB (default: HBM minus router/KV)",
            [&p, &cfg](const std::string &v) {
                cfg.expertRegionBytes =
                    regionBytes(p, "--expert-region-gb", parseDouble(v));
            });
    p.check([&p, &cfg] {
        if (p.given("--zipf-s") &&
            cfg.routing != coe::RoutingDistribution::Zipf)
            p.fail("--zipf-s requires --routing zipf");
        if (p.given("--prefetch-depth") && !cfg.predictivePrefetch)
            p.fail("--prefetch-depth requires --prefetch");
        if (p.given("--prefetch-window") && !cfg.predictivePrefetch)
            p.fail("--prefetch-window requires --prefetch");
    });
}

/** Arrival-process flags shared by serve and cluster. */
inline void
addArrivalFlags(FlagParser &p, coe::ServingConfig &cfg)
{
    p.group("Arrivals");
    p.value("--arrival-rate", "R",
            "open-loop Poisson req/s (default 8); under cluster "
            "the total rate, default 8 x nodes",
            [&](const std::string &v) {
                cfg.arrivalRatePerSec = parseDouble(v);
            });
    p.flag("--closed-loop", "fixed client pool instead of Poisson arrivals",
           [&]() { cfg.arrival = coe::ArrivalProcess::ClosedLoop; });
    p.value("--clients", "N", "pool size (requires --closed-loop; default 16)",
            [&](const std::string &v) { cfg.clients = parseInt(v); });
    p.value("--think", "SEC",
            "client think time (requires --closed-loop; default 0)",
            [&](const std::string &v) { cfg.thinkSeconds = parseDouble(v); });
    // --workload closed-loop sets the arrival process as it parses,
    // so this check sees it whichever group registered first.
    p.check([&p, &cfg] {
        bool closed = cfg.arrival == coe::ArrivalProcess::ClosedLoop;
        if (closed && p.given("--arrival-rate"))
            p.fail("--arrival-rate is an open-loop parameter; it cannot "
                   "be combined with " + closedLoopFlag(p));
        if (!closed && anyGiven(p, {"--clients", "--think"}))
            p.fail("--clients/--think only apply to --closed-loop runs");
    });
}

/**
 * Workload-scenario flags shared by serve, sweep, and cluster: tenant
 * mixes, conversational sessions, burst shaping, SLO admission, and
 * trace record/replay (coe/workload.h). The check resolves --workload
 * and catches the purely-CLI contradictions; the field ranges are
 * validateWorkloadConfig's (via validateServingConfig). Under sweep,
 * --closed-loop is not registered and --arrival-rate is a grid axis
 * whose own check comes first.
 */
inline void
addScenarioFlags(FlagParser &p, coe::ServingConfig &cfg)
{
    auto workload = std::make_shared<std::string>();
    p.group("Workload scenarios");
    p.value("--workload", "W",
            "poisson | closed-loop | mix (default poisson)",
            [&cfg, workload](const std::string &v) {
                *workload = v;
                if (v == "closed-loop")
                    cfg.arrival = coe::ArrivalProcess::ClosedLoop;
            });
    p.value("--tenants", "N", "tenants in the mix (with --workload mix: 4)",
            [&](const std::string &v) {
                cfg.workload.tenants = parseInt(v);
            });
    // Stricter than sloSeconds, where 0 means "no deadline".
    p.value("--slo-ms", "MS",
            "per-request deadline; shed arrivals that would miss it",
            [&p, &cfg](const std::string &v) {
                double ms = parseDouble(v);
                if (ms <= 0.0)
                    p.fail("--slo-ms must be positive");
                cfg.workload.sloSeconds = ms / 1000.0;
            });
    p.value("--session-prob", "P",
            "P(follow-up turn) after each turn (default 0)",
            [&](const std::string &v) {
                cfg.workload.sessionFollowProb = parseDouble(v);
            });
    p.value("--session-think", "SEC",
            "mean think time between turns (default 0.5)",
            [&](const std::string &v) {
                cfg.workload.sessionThinkSeconds = parseDouble(v);
            });
    p.value("--session-turns", "N", "max turns per session (default 8)",
            [&](const std::string &v) {
                cfg.workload.sessionMaxTurns = parseInt(v);
            });
    p.value("--burst-factor", "F",
            "rate multiplier inside burst windows (default 1 = off)",
            [&](const std::string &v) {
                cfg.workload.shape.burstFactor = parseDouble(v);
            });
    p.value("--burst-every", "SEC", "burst window period",
            [&](const std::string &v) {
                cfg.workload.shape.burstEverySeconds = parseDouble(v);
            });
    p.value("--burst-seconds", "SEC", "burst window length",
            [&](const std::string &v) {
                cfg.workload.shape.burstSeconds = parseDouble(v);
            });
    p.value("--trace-out", "FILE",
            "record the request stream as JSONL (not under sweep)",
            [&](const std::string &v) { cfg.workload.traceOut = v; });
    p.value("--trace-in", "FILE",
            "replay a recorded stream (sweep: at every point)",
            [&](const std::string &v) { cfg.workload.traceIn = v; });
    p.check([&p, &cfg, workload] {
        bool named = p.given("--workload");
        bool tenants = p.given("--tenants");
        bool sessions = anyGiven(
            p, {"--session-prob", "--session-think", "--session-turns"});
        bool closed_loop = cfg.arrival == coe::ArrivalProcess::ClosedLoop;
        if (named) {
            if (*workload == "poisson") {
                if (closed_loop)
                    p.fail("--workload poisson contradicts --closed-loop");
                cfg.arrival = coe::ArrivalProcess::Poisson;
            } else if (*workload == "mix") {
                if (!tenants)
                    cfg.workload.tenants = 4;
            } else if (*workload != "closed-loop") {
                p.fail("unknown --workload '" + *workload +
                       "' (expected poisson, closed-loop, or mix)");
            }
        }
        if (tenants && named && *workload != "mix")
            p.fail("--tenants requires --workload mix");
        if ((tenants || sessions) && closed_loop)
            p.fail("tenant mixes and sessions are open-loop workloads; "
                   "drop " + closedLoopFlag(p));
        if (!cfg.workload.traceIn.empty() &&
            (named || tenants || sessions || closed_loop ||
             anyGiven(p, {"--burst-factor", "--burst-every",
                          "--burst-seconds", "--arrival-rate"})))
            p.fail("--trace-in replays a recorded request stream; "
                   "workload-generator flags (--workload/--tenants/"
                   "--session-*/--burst-*/--closed-loop/--arrival-rate) "
                   "do not apply");
    });
}

/**
 * The scheduler stays a string so serve and sweep can accept their
 * "both" comparison mode; callers resolve it after parsing.
 */
inline void
addSchedulerFlag(FlagParser &p, std::string &scheduler_name)
{
    p.group("Scheduler");
    p.value("--scheduler", "S",
            "fifo | affinity | both (default both); cluster runs "
            "one, default affinity",
            [&](const std::string &v) { scheduler_name = v; });
}

/**
 * Core serving scalars shared by serve and cluster (sweep keeps list
 * versions of these as grid axes), plus the scheduler.
 */
inline void
addCoreServingFlags(FlagParser &p, coe::ServingConfig &cfg,
                    std::string &scheduler_name)
{
    p.group("Workload");
    p.value("--experts", "N", "experts in the zoo (default 150)",
            [&](const std::string &v) { cfg.numExperts = parseInt(v); });
    p.value("--batch", "N", "max prompts per batch (default 8)",
            [&](const std::string &v) { cfg.batch = parseInt(v); });
    p.value("--seed", "N", "RNG seed (default 1)",
            [&](const std::string &v) { cfg.seed = parseUint64(v); });
    addSchedulerFlag(p, scheduler_name);
}

// --------------------------------- spec-decode / expert-zoo group

/**
 * Speculative-decoding and PEFT expert-zoo serving modes (serve,
 * sweep, cluster). --spec-decode turns the decode phase into
 * draft/verify rounds against a small always-resident draft model;
 * --zoo-adapters N replaces the full-weight expert set with N LoRA
 * adapters sharing pinned base weights, so expert switches become
 * many tiny DMA transfers, and cannot be combined with --experts
 * (under sweep, the experts axis).
 */
inline void
addSpecZooFlags(FlagParser &p, coe::ServingConfig &cfg)
{
    p.group("Speculative decoding");
    p.flag("--spec-decode",
           "draft/verify decoding with a resident draft model",
           [&]() { cfg.specDecode.enabled = true; });
    p.value("--spec-gamma", "N",
            "draft tokens per verification step (default 4)",
            [&](const std::string &v) { cfg.specDecode.gamma = parseInt(v); });
    p.value("--spec-accept", "P",
            "per-token acceptance probability (default 0.8)",
            [&](const std::string &v) {
                cfg.specDecode.acceptRate = parseDouble(v);
            });
    p.value("--spec-draft-ratio", "F",
            "draft cost / target cost, in (0, 1) (default 0.05)",
            [&](const std::string &v) {
                cfg.specDecode.draftRatio = parseDouble(v);
            });
    p.group("PEFT expert zoo");
    p.value("--zoo-adapters", "N",
            "N LoRA adapters on pinned base weights (not --experts)",
            [&](const std::string &v) {
                cfg.zoo.enabled = true;
                cfg.numExperts = parseInt(v);
            });
    p.value("--zoo-rank", "R",
            "LoRA rank; adapter bytes scale with it (default 16)",
            [&](const std::string &v) { cfg.zoo.rank = parseInt(v); });
    p.value("--zoo-churn", "SEC",
            "rotate adapter popularity every SEC (default 0 = off)",
            [&](const std::string &v) {
                cfg.zoo.churnEverySeconds = parseDouble(v);
            });
    p.check([&p, &cfg] {
        if (!cfg.specDecode.enabled &&
            anyGiven(p, {"--spec-gamma", "--spec-accept",
                         "--spec-draft-ratio"}))
            p.fail("--spec-gamma/--spec-accept/--spec-draft-ratio "
                   "require --spec-decode");
        bool zoo = p.given("--zoo-adapters");
        if (!zoo && anyGiven(p, {"--zoo-rank", "--zoo-churn"}))
            p.fail("--zoo-rank/--zoo-churn require --zoo-adapters");
        if (zoo && p.given("--experts"))
            p.fail("--zoo-adapters replaces the expert set; it cannot be "
                   "combined with --experts");
    });
}

// ------------------------------------------ control-plane groups

/**
 * Autoscaling control-plane flags (cluster subcommand). --controller
 * picks the policy; the rest tune it and require an active policy.
 */
inline void
addControllerFlags(FlagParser &p, coe::ControllerConfig &cfg)
{
    p.group("Control plane");
    p.value("--controller", "P",
            "static | reactive | target-util autoscaler (default static)",
            [&](const std::string &v) {
                cfg.policy = coe::controllerPolicyFromName(v);
            });
    p.value("--controller-tick", "SEC", "control-loop period (default 0.5)",
            [&](const std::string &v) { cfg.tickSeconds = parseDouble(v); });
    p.value("--controller-min", "N", "live-node floor (default 1)",
            [&](const std::string &v) { cfg.minNodes = parseInt(v); });
    p.value("--controller-max", "N", "live-node ceiling (default --nodes)",
            [&](const std::string &v) { cfg.maxNodes = parseInt(v); });
    p.value("--controller-up-depth", "D",
            "reactive: scale up above this depth/node (default 4)",
            [&](const std::string &v) {
                cfg.scaleUpQueueDepth = parseDouble(v);
            });
    p.value("--controller-down-depth", "D",
            "reactive: scale down below this depth (default 0.5)",
            [&](const std::string &v) {
                cfg.scaleDownQueueDepth = parseDouble(v);
            });
    p.value("--controller-target-util", "U",
            "target-util: load near U x capacity (default 0.7)",
            [&](const std::string &v) {
                cfg.targetUtilization = parseDouble(v);
            });
    p.value("--controller-cooldown", "N",
            "ticks a scale-down waits after any action (default 4)",
            [&](const std::string &v) { cfg.cooldownTicks = parseInt(v); });
    p.value("--controller-hot", "K",
            "re-replicate the K hottest experts (default 0)",
            [&](const std::string &v) { cfg.hotExpertTrack = parseInt(v); });
    p.value("--controller-log", "FILE", "JSONL decision log, one line a tick",
            [&](const std::string &v) { cfg.logPath = v; });
    p.check([&p, &cfg] {
        if (cfg.policy == coe::ControllerPolicy::Static &&
            anyGiven(p, {"--controller-tick", "--controller-min",
                         "--controller-max", "--controller-up-depth",
                         "--controller-down-depth",
                         "--controller-target-util", "--controller-cooldown",
                         "--controller-hot", "--controller-log"}))
            p.fail("--controller-* tuning flags require an active "
                   "--controller policy (reactive or target-util)");
    });
}

/**
 * Parse a --schedule list: comma-separated KIND:AT[:ARG] entries
 * where KIND is drain, rejoin, or rate; AT is seconds; ARG is the
 * node id for drain/rejoin (default 0) or the required rate factor
 * for rate. Example: drain:3:1,rejoin:8:1,rate:12:0.5.
 */
inline std::vector<coe::ScheduledAction>
parseScheduleList(const FlagParser &p, const std::string &csv)
{
    std::vector<coe::ScheduledAction> actions;
    for (const std::string &entry :
         parseList<std::string>(p, csv, +[](const std::string &s) {
             return s;
         })) {
        std::vector<std::string> parts;
        std::string part;
        std::stringstream ss(entry);
        while (std::getline(ss, part, ':'))
            parts.push_back(part);
        if (parts.size() < 2 || parts.size() > 3)
            p.fail("--schedule entry '" + entry +
                   "' is not KIND:AT[:ARG]");
        coe::ScheduledAction a;
        a.atSeconds = parseDouble(parts[1]);
        if (parts[0] == "drain") {
            a.kind = coe::ActionKind::Drain;
            if (parts.size() == 3)
                a.node = parseInt(parts[2]);
        } else if (parts[0] == "rejoin") {
            a.kind = coe::ActionKind::Rejoin;
            if (parts.size() == 3)
                a.node = parseInt(parts[2]);
        } else if (parts[0] == "rate") {
            a.kind = coe::ActionKind::RateOverride;
            if (parts.size() != 3)
                p.fail("--schedule rate entries need a factor: "
                       "rate:AT:FACTOR");
            a.rateFactor = parseDouble(parts[2]);
        } else {
            p.fail("--schedule entry '" + entry +
                   "' has unknown kind '" + parts[0] +
                   "' (expected drain, rejoin, or rate)");
        }
        actions.push_back(a);
    }
    return actions;
}

// ------------------------------------------ interconnect group

/**
 * Interconnect flags (cluster subcommand). --topology switches the
 * cluster from instantaneous hub->node handoff onto the event-driven
 * link/credit fabric (coe/fabric.h); the --link-* knobs tune it and
 * require it. Off by default: without --topology the run is
 * byte-identical to a pre-fabric build.
 */
inline void
addFabricFlags(FlagParser &p, coe::FabricConfig &cfg)
{
    p.group("Interconnect");
    p.value("--topology", "T",
            "star | mesh | torus | fat-tree fabric (default: none)",
            [&](const std::string &v) {
                cfg.topology = sim::topologyFromName(v);
                cfg.enabled = true;
            });
    p.value("--link-gbps", "G", "per-link bandwidth in Gb/s (default 200)",
            [&](const std::string &v) { cfg.linkGbps = parseDouble(v); });
    p.value("--link-latency-us", "U",
            "per-hop latency and credit-return delay (default 2)",
            [&](const std::string &v) { cfg.linkLatencyUs = parseDouble(v); });
    p.value("--link-buffer-flits", "N",
            "per-link input buffer = credit count (default 64)",
            [&](const std::string &v) { cfg.linkBufferFlits = parseInt(v); });
    p.check([&p, &cfg] {
        if (!cfg.enabled &&
            anyGiven(p, {"--link-gbps", "--link-latency-us",
                         "--link-buffer-flits"}))
            p.fail("--link-* flags tune the interconnect; they require "
                   "--topology");
    });
}

// ------------------------------------------------ chaos groups

/**
 * Chaos-layer flags (cluster and sweep subcommands): a JSONL fault
 * schedule to replay (its path lands in @p faults_path) plus the
 * degraded-mode policy knobs (coe/faults.h). All off by default —
 * without --faults and with the policies disabled the run is
 * bit-identical to a chaos-free build. The check catches the
 * purely-CLI contradictions; the field ranges are
 * validateFaultPolicy's (via validateClusterConfig). --hedge reads
 * the deadlines of @p serving.
 */
inline void
addFaultFlags(FlagParser &p, coe::FaultPolicyConfig &cfg,
              std::string &faults_path, const coe::ServingConfig &serving)
{
    p.group("Faults & degraded mode (cluster points only under sweep)");
    p.value("--faults", "FILE",
            "replay a JSONL fault schedule (schema: docs/CLI.md)",
            [&](const std::string &v) { faults_path = v; });
    p.value("--retry-max", "N",
            "retries per displaced request (default 0)",
            [&](const std::string &v) { cfg.retryMax = parseInt(v); });
    // Stricter than retryBackoffSeconds, where 0 retries at once.
    p.value("--retry-backoff-ms", "MS",
            "retry backoff base, doubling per attempt (default 50)",
            [&p, &cfg](const std::string &v) {
                double ms = parseDouble(v);
                if (ms <= 0.0)
                    p.fail("--retry-backoff-ms must be positive");
                cfg.retryBackoffSeconds = ms / 1000.0;
            });
    p.value("--retry-budget", "N",
            "cluster-wide retry cap, -1 = unbounded (default -1)",
            [&](const std::string &v) { cfg.retryBudget = parseInt64(v); });
    p.flag("--hedge", "duplicate a dispatch when the deadline is threatened",
           [&]() { cfg.hedge = true; });
    p.value("--hedge-threshold", "F",
            "hedge when estimated delay > F x deadline (default 1)",
            [&](const std::string &v) { cfg.hedgeThreshold = parseDouble(v); });
    p.value("--brownout-depth", "D",
            "brown-out above this queue depth (default 0 = off)",
            [&](const std::string &v) { cfg.brownoutDepth = parseDouble(v); });
    p.value("--brownout-prio", "P",
            "max priority tier shed in brown-out (default 0)",
            [&](const std::string &v) {
                cfg.brownoutPriorityMax = parseInt(v);
            });
    p.value("--policy-tick-ms", "MS",
            "hedge/brown-out evaluation period (default 50)",
            [&](const std::string &v) {
                cfg.policyTickSeconds = parseDouble(v) / 1000.0;
            });
    p.check([&p, &cfg, &serving] {
        if (!p.given("--faults") &&
            anyGiven(p, {"--retry-max", "--retry-backoff-ms",
                         "--retry-budget"}))
            p.fail("--retry-* flags configure recovery from injected "
                   "faults; they require --faults FILE");
        if (p.given("--hedge-threshold") && !cfg.hedge)
            p.fail("--hedge-threshold requires --hedge");
        if (cfg.hedge && serving.workload.sloSeconds <= 0.0 &&
            serving.workload.traceIn.empty())
            p.fail("--hedge fires on SLO pressure; it needs --slo-ms or a "
                   "replayed trace carrying deadlines (--trace-in)");
        if (p.given("--brownout-prio") && cfg.brownoutDepth <= 0.0)
            p.fail("--brownout-prio requires --brownout-depth");
        if (p.given("--policy-tick-ms") && !cfg.hedge &&
            cfg.brownoutDepth <= 0.0)
            p.fail("--policy-tick-ms paces hedging and brown-out; it "
                   "requires --hedge or --brownout-depth");
    });
}

/** Capacity-planning targets (cluster subcommand). */
struct PlanFlagState
{
    int maxNodes = 0;       ///< 0: plan up to --nodes
    double p95Ms = 0.0;     ///< SLO target, required with --plan-capacity
    double maxShedPct = 0.0;
};

inline void
addPlanFlags(FlagParser &p, PlanFlagState &st)
{
    p.group("Capacity planning");
    p.flag("--plan-capacity",
           "report the smallest node count meeting the targets", [] {});
    p.value("--plan-max-nodes", "N", "search ceiling (default --nodes)",
            [&](const std::string &v) { st.maxNodes = parseInt(v); });
    p.value("--plan-p95-ms", "MS", "p95 latency target (required)",
            [&](const std::string &v) { st.p95Ms = parseDouble(v); });
    p.value("--plan-max-shed-pct", "P", "max shed percentage (default 0)",
            [&](const std::string &v) { st.maxShedPct = parseDouble(v); });
    p.check([&p, &st] {
        if (!p.given("--plan-capacity")) {
            if (anyGiven(p, {"--plan-max-nodes", "--plan-p95-ms",
                             "--plan-max-shed-pct"}))
                p.fail("--plan-* flags require --plan-capacity");
            return;
        }
        // Written so NaN fails too: no node count could ever meet it.
        if (!(std::isfinite(st.p95Ms) && st.p95Ms > 0.0))
            p.fail("--plan-capacity needs a finite, positive "
                   "--plan-p95-ms target");
        if (p.given("--plan-max-nodes") && st.maxNodes < 1)
            p.fail("--plan-max-nodes must be at least 1");
        if (!(st.maxShedPct >= 0.0 && st.maxShedPct <= 100.0))
            p.fail("--plan-max-shed-pct must be in [0, 100]");
    });
}

} // namespace sn40l::tools

#endif // SN40L_TOOLS_CLI_CONFIG_H

/**
 * @file
 * Shared sn40l_run flag tables. The serve / sweep / cluster
 * subcommands register the same workload, arrival, scenario, and
 * core-serving flags; those groups (and the cross-flag validation
 * that goes with them) live here so each flag is defined exactly
 * once, with one --help line, and every subcommand rejects the same
 * contradictions with the same messages. The control-plane flags
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
#include <iostream>
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

inline coe::Platform
platformByName(const std::string &name)
{
    if (name == "sn40l") return coe::Platform::Sn40l;
    if (name == "dgx-a100") return coe::Platform::DgxA100;
    if (name == "dgx-h100") return coe::Platform::DgxH100;
    std::cerr << "unknown platform '" << name
              << "' (expected sn40l, dgx-a100, or dgx-h100)\n";
    std::exit(1);
}

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

// ------------------------------------------- shared flag groups

/** Tracks which optional flags were set, for contradiction checks. */
struct WorkloadFlagState
{
    bool setZipfS = false;
    bool setPrefetchDepth = false;
    bool setPrefetchWindow = false;
};

/**
 * Workload/memory flags shared by serve, sweep, and cluster: the
 * platform, the per-prompt shape, the routing distribution, and the
 * expert-streaming memory system.
 */
inline void
addWorkloadFlags(FlagParser &p, coe::ServingConfig &cfg,
                 WorkloadFlagState &st)
{
    p.group("Workload");
    p.value("--platform", "P", "sn40l | dgx-a100 | dgx-h100 (default sn40l)",
            [&](const std::string &v) { cfg.platform = platformByName(v); });
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
            [&](const std::string &v) {
                cfg.zipfS = parseDouble(v);
                st.setZipfS = true;
            });
    p.group("Memory system");
    p.flag("--prefetch",
           "prefetch queued requests' experts at low DMA priority",
           [&]() { cfg.predictivePrefetch = true; });
    p.value("--prefetch-depth", "N",
            "max outstanding prefetches (default 4)",
            [&](const std::string &v) {
                cfg.prefetchDepth = parseInt(v);
                st.setPrefetchDepth = true;
            });
    p.value("--prefetch-window", "N",
            "queue entries scanned per prefetch (default 0 = all)",
            [&](const std::string &v) {
                cfg.prefetchWindow = parseInt(v);
                st.setPrefetchWindow = true;
            });
    p.value("--dma-engines", "N", "DMA engines streaming experts (default 2)",
            [&](const std::string &v) { cfg.dmaEngines = parseInt(v); });
    p.value("--expert-region-gb", "G",
            "HBM expert region in GB (default: HBM minus router/KV)",
            [&p, &cfg](const std::string &v) {
                cfg.expertRegionBytes =
                    regionBytes(p, "--expert-region-gb", parseDouble(v));
            });
}

/** Reject contradictory workload flag combinations. */
inline void
validateWorkloadFlags(const FlagParser &p, const coe::ServingConfig &cfg,
                      const WorkloadFlagState &st)
{
    if (st.setZipfS && cfg.routing != coe::RoutingDistribution::Zipf)
        p.fail("--zipf-s requires --routing zipf");
    if (st.setPrefetchDepth && !cfg.predictivePrefetch)
        p.fail("--prefetch-depth requires --prefetch");
    if (st.setPrefetchWindow && !cfg.predictivePrefetch)
        p.fail("--prefetch-window requires --prefetch");
}

struct ArrivalFlagState
{
    bool setArrivalRate = false;
    bool setClosedLoop = false;
    bool setClients = false;
    bool setThink = false;
};

/** Arrival-process flags shared by serve and cluster. */
inline void
addArrivalFlags(FlagParser &p, coe::ServingConfig &cfg,
                ArrivalFlagState &st)
{
    p.group("Arrivals");
    p.value("--arrival-rate", "R",
            "open-loop Poisson req/s (default 8); under cluster "
            "the total rate, default 8 x nodes",
            [&](const std::string &v) {
                cfg.arrivalRatePerSec = parseDouble(v);
                st.setArrivalRate = true;
            });
    p.flag("--closed-loop", "fixed client pool instead of Poisson arrivals",
           [&]() {
               cfg.arrival = coe::ArrivalProcess::ClosedLoop;
               st.setClosedLoop = true;
           });
    p.value("--clients", "N", "pool size (requires --closed-loop; default 16)",
            [&](const std::string &v) {
                cfg.clients = parseInt(v);
                st.setClients = true;
            });
    p.value("--think", "SEC",
            "client think time (requires --closed-loop; default 0)",
            [&](const std::string &v) {
                cfg.thinkSeconds = parseDouble(v);
                st.setThink = true;
            });
}

inline void
validateArrivalFlags(const FlagParser &p, const coe::ServingConfig &cfg,
                     const ArrivalFlagState &st)
{
    if (cfg.arrival == coe::ArrivalProcess::ClosedLoop &&
        st.setArrivalRate)
        p.fail("--arrival-rate is an open-loop parameter; it cannot "
               "be combined with --closed-loop");
    if (cfg.arrival != coe::ArrivalProcess::ClosedLoop &&
        (st.setClients || st.setThink))
        p.fail("--clients/--think only apply to --closed-loop runs");
}

/** Tracks which workload-scenario flags were set. */
struct ScenarioFlagState
{
    std::string workloadName;
    bool setWorkload = false;
    bool setTenants = false;
    bool setSession = false;
    bool setBurst = false;
};

/**
 * Workload-scenario flags shared by serve, sweep, and cluster: tenant
 * mixes, conversational sessions, burst shaping, SLO admission, and
 * trace record/replay (coe/workload.h).
 */
inline void
addScenarioFlags(FlagParser &p, coe::ServingConfig &cfg,
                 ScenarioFlagState &st)
{
    p.group("Workload scenarios");
    p.value("--workload", "W",
            "poisson | closed-loop | mix (default poisson)",
            [&](const std::string &v) {
                st.workloadName = v;
                st.setWorkload = true;
            });
    p.value("--tenants", "N", "tenants in the mix (with --workload mix: 4)",
            [&](const std::string &v) {
                cfg.workload.tenants = parseInt(v);
                st.setTenants = true;
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
                st.setSession = true;
            });
    p.value("--session-think", "SEC",
            "mean think time between turns (default 0.5)",
            [&](const std::string &v) {
                cfg.workload.sessionThinkSeconds = parseDouble(v);
                st.setSession = true;
            });
    p.value("--session-turns", "N", "max turns per session (default 8)",
            [&](const std::string &v) {
                cfg.workload.sessionMaxTurns = parseInt(v);
                st.setSession = true;
            });
    p.value("--burst-factor", "F",
            "rate multiplier inside burst windows (default 1 = off)",
            [&](const std::string &v) {
                cfg.workload.shape.burstFactor = parseDouble(v);
                st.setBurst = true;
            });
    p.value("--burst-every", "SEC", "burst window period",
            [&](const std::string &v) {
                cfg.workload.shape.burstEverySeconds = parseDouble(v);
                st.setBurst = true;
            });
    p.value("--burst-seconds", "SEC", "burst window length",
            [&](const std::string &v) {
                cfg.workload.shape.burstSeconds = parseDouble(v);
                st.setBurst = true;
            });
    p.value("--trace-out", "FILE",
            "record the request stream as JSONL (not under sweep)",
            [&](const std::string &v) { cfg.workload.traceOut = v; });
    p.value("--trace-in", "FILE",
            "replay a recorded stream (sweep: at every point)",
            [&](const std::string &v) { cfg.workload.traceIn = v; });
}

/**
 * Resolve and cross-check the scenario flags. The field ranges are
 * validateWorkloadConfig's (via validateServingConfig); this layer
 * catches the purely-CLI contradictions with messages naming the
 * subcommand.
 */
inline void
validateScenarioFlags(const FlagParser &p, coe::ServingConfig &cfg,
                      const ScenarioFlagState &st,
                      const ArrivalFlagState &ast)
{
    if (st.setWorkload) {
        if (st.workloadName == "poisson") {
            if (ast.setClosedLoop)
                p.fail("--workload poisson contradicts --closed-loop");
            cfg.arrival = coe::ArrivalProcess::Poisson;
        } else if (st.workloadName == "closed-loop") {
            cfg.arrival = coe::ArrivalProcess::ClosedLoop;
        } else if (st.workloadName == "mix") {
            if (!st.setTenants)
                cfg.workload.tenants = 4;
        } else {
            p.fail("unknown --workload '" + st.workloadName +
                   "' (expected poisson, closed-loop, or mix)");
        }
    }
    if (st.setTenants && st.setWorkload && st.workloadName != "mix")
        p.fail("--tenants requires --workload mix");
    if ((st.setTenants || st.setSession) && ast.setClosedLoop)
        p.fail("tenant mixes and sessions are open-loop workloads; "
               "drop --closed-loop");
    if (!cfg.workload.traceIn.empty() &&
        (st.setWorkload || st.setTenants || st.setSession ||
         st.setBurst || ast.setClosedLoop || ast.setArrivalRate))
        p.fail("--trace-in replays a recorded request stream; "
               "workload-generator flags (--workload/--tenants/"
               "--session-*/--burst-*/--closed-loop/--arrival-rate) "
               "do not apply");
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
                    std::string &scheduler_name,
                    bool *set_experts = nullptr)
{
    p.group("Workload");
    p.value("--experts", "N", "experts in the zoo (default 150)",
            [&cfg, set_experts](const std::string &v) {
                cfg.numExperts = parseInt(v);
                if (set_experts)
                    *set_experts = true;
            });
    p.value("--batch", "N", "max prompts per batch (default 8)",
            [&](const std::string &v) { cfg.batch = parseInt(v); });
    p.value("--seed", "N", "RNG seed (default 1)",
            [&](const std::string &v) { cfg.seed = parseUint64(v); });
    addSchedulerFlag(p, scheduler_name);
}

// --------------------------------- spec-decode / expert-zoo group

/** Tracks which spec-decode / zoo tuning flags were set. */
struct SpecZooFlagState
{
    bool setGamma = false;
    bool setAccept = false;
    bool setDraftRatio = false;
    bool setZooAdapters = false;
    bool setZooRank = false;
    bool setZooChurn = false;
};

/**
 * Speculative-decoding and PEFT expert-zoo serving modes (serve,
 * sweep, cluster). --spec-decode turns the decode phase into
 * draft/verify rounds against a small always-resident draft model;
 * --zoo-adapters N replaces the full-weight expert set with N LoRA
 * adapters sharing pinned base weights, so expert switches become
 * many tiny DMA transfers.
 */
inline void
addSpecZooFlags(FlagParser &p, coe::ServingConfig &cfg,
                SpecZooFlagState &st)
{
    p.group("Speculative decoding");
    p.flag("--spec-decode",
           "draft/verify decoding with a resident draft model",
           [&]() { cfg.specDecode.enabled = true; });
    p.value("--spec-gamma", "N",
            "draft tokens per verification step (default 4)",
            [&](const std::string &v) {
                cfg.specDecode.gamma = parseInt(v);
                st.setGamma = true;
            });
    p.value("--spec-accept", "P",
            "per-token acceptance probability (default 0.8)",
            [&](const std::string &v) {
                cfg.specDecode.acceptRate = parseDouble(v);
                st.setAccept = true;
            });
    p.value("--spec-draft-ratio", "F",
            "draft cost / target cost, in (0, 1) (default 0.05)",
            [&](const std::string &v) {
                cfg.specDecode.draftRatio = parseDouble(v);
                st.setDraftRatio = true;
            });
    p.group("PEFT expert zoo");
    p.value("--zoo-adapters", "N",
            "N LoRA adapters on pinned base weights (not --experts)",
            [&](const std::string &v) {
                cfg.zoo.enabled = true;
                cfg.numExperts = parseInt(v);
                st.setZooAdapters = true;
            });
    p.value("--zoo-rank", "R",
            "LoRA rank; adapter bytes scale with it (default 16)",
            [&](const std::string &v) {
                cfg.zoo.rank = parseInt(v);
                st.setZooRank = true;
            });
    p.value("--zoo-churn", "SEC",
            "rotate adapter popularity every SEC (default 0 = off)",
            [&](const std::string &v) {
                cfg.zoo.churnEverySeconds = parseDouble(v);
                st.setZooChurn = true;
            });
}

/**
 * Reject contradictory spec-decode / zoo combinations. @p set_experts
 * reports whether the caller saw an explicit --experts (scalar or
 * sweep-axis): --zoo-adapters replaces the expert set, so combining
 * the two is ambiguous.
 */
inline void
validateSpecZooFlags(const FlagParser &p, const coe::ServingConfig &cfg,
                     const SpecZooFlagState &st, bool set_experts)
{
    if (!cfg.specDecode.enabled &&
        (st.setGamma || st.setAccept || st.setDraftRatio))
        p.fail("--spec-gamma/--spec-accept/--spec-draft-ratio require "
               "--spec-decode");
    if (!st.setZooAdapters && (st.setZooRank || st.setZooChurn))
        p.fail("--zoo-rank/--zoo-churn require --zoo-adapters");
    if (st.setZooAdapters && set_experts)
        p.fail("--zoo-adapters replaces the expert set; it cannot be "
               "combined with --experts");
}

// ------------------------------------------ control-plane groups

struct ControllerFlagState
{
    bool setPolicy = false;
    bool setTuning = false; ///< any --controller-* besides --controller
};

/**
 * Autoscaling control-plane flags (cluster subcommand). --controller
 * picks the policy; the rest tune it and require an active policy.
 */
inline void
addControllerFlags(FlagParser &p, coe::ControllerConfig &cfg,
                   ControllerFlagState &st)
{
    p.group("Control plane");
    p.value("--controller", "P",
            "static | reactive | target-util autoscaler (default static)",
            [&](const std::string &v) {
                cfg.policy = coe::controllerPolicyFromName(v);
                st.setPolicy = true;
            });
    p.value("--controller-tick", "SEC", "control-loop period (default 0.5)",
            [&](const std::string &v) {
                cfg.tickSeconds = parseDouble(v);
                st.setTuning = true;
            });
    p.value("--controller-min", "N", "live-node floor (default 1)",
            [&](const std::string &v) {
                cfg.minNodes = parseInt(v);
                st.setTuning = true;
            });
    p.value("--controller-max", "N", "live-node ceiling (default --nodes)",
            [&](const std::string &v) {
                cfg.maxNodes = parseInt(v);
                st.setTuning = true;
            });
    p.value("--controller-up-depth", "D",
            "reactive: scale up above this depth/node (default 4)",
            [&](const std::string &v) {
                cfg.scaleUpQueueDepth = parseDouble(v);
                st.setTuning = true;
            });
    p.value("--controller-down-depth", "D",
            "reactive: scale down below this depth (default 0.5)",
            [&](const std::string &v) {
                cfg.scaleDownQueueDepth = parseDouble(v);
                st.setTuning = true;
            });
    p.value("--controller-target-util", "U",
            "target-util: load near U x capacity (default 0.7)",
            [&](const std::string &v) {
                cfg.targetUtilization = parseDouble(v);
                st.setTuning = true;
            });
    p.value("--controller-cooldown", "N",
            "ticks a scale-down waits after any action (default 4)",
            [&](const std::string &v) {
                cfg.cooldownTicks = parseInt(v);
                st.setTuning = true;
            });
    p.value("--controller-hot", "K",
            "re-replicate the K hottest experts (default 0)",
            [&](const std::string &v) {
                cfg.hotExpertTrack = parseInt(v);
                st.setTuning = true;
            });
    p.value("--controller-log", "FILE", "JSONL decision log, one line a tick",
            [&](const std::string &v) {
                cfg.logPath = v;
                st.setTuning = true;
            });
}

inline void
validateControllerFlags(const FlagParser &p,
                        const coe::ControllerConfig &cfg,
                        const ControllerFlagState &st)
{
    if (st.setTuning && cfg.policy == coe::ControllerPolicy::Static)
        p.fail("--controller-* tuning flags require an active "
               "--controller policy (reactive or target-util)");
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
addFabricFlags(FlagParser &p, coe::FabricConfig &cfg, bool &set_link)
{
    p.group("Interconnect");
    p.value("--topology", "T",
            "star | mesh | torus | fat-tree fabric (default: none)",
            [&](const std::string &v) {
                cfg.topology = sim::topologyFromName(v);
                cfg.enabled = true;
            });
    p.value("--link-gbps", "G", "per-link bandwidth in Gb/s (default 200)",
            [&](const std::string &v) {
                cfg.linkGbps = parseDouble(v);
                set_link = true;
            });
    p.value("--link-latency-us", "U",
            "per-hop latency and credit-return delay (default 2)",
            [&](const std::string &v) {
                cfg.linkLatencyUs = parseDouble(v);
                set_link = true;
            });
    p.value("--link-buffer-flits", "N",
            "per-link input buffer = credit count (default 64)",
            [&](const std::string &v) {
                cfg.linkBufferFlits = parseInt(v);
                set_link = true;
            });
}

inline void
validateFabricFlags(const FlagParser &p, const coe::FabricConfig &cfg,
                    bool set_link, coe::DispatchPolicy dispatch)
{
    if (!cfg.enabled && set_link)
        p.fail("--link-* flags tune the interconnect; they require "
               "--topology");
    if (dispatch == coe::DispatchPolicy::TopologyAware && !cfg.enabled)
        p.fail("--dispatch topo-aware routes around fabric congestion; "
               "it requires --topology");
}

// ------------------------------------------------ chaos groups

struct FaultFlagState
{
    std::string faultsPath;
    bool setFaults = false;
    bool setRetry = false;       ///< any --retry-*
    bool setHedgeThreshold = false;
    bool setBrownoutPrio = false;
    bool setPolicyTick = false;
};

/**
 * Chaos-layer flags (cluster and sweep subcommands): a JSONL fault
 * schedule to replay plus the degraded-mode policy knobs
 * (coe/faults.h). All off by default — without --faults and with the
 * policies disabled the run is bit-identical to a chaos-free build.
 */
inline void
addFaultFlags(FlagParser &p, coe::FaultPolicyConfig &cfg,
              FaultFlagState &st)
{
    p.group("Faults & degraded mode (cluster points only under sweep)");
    p.value("--faults", "FILE",
            "replay a JSONL fault schedule (schema: docs/CLI.md)",
            [&](const std::string &v) {
                st.faultsPath = v;
                st.setFaults = true;
            });
    p.value("--retry-max", "N",
            "retries per displaced request (default 0)",
            [&](const std::string &v) {
                cfg.retryMax = parseInt(v);
                st.setRetry = true;
            });
    // Stricter than retryBackoffSeconds, where 0 retries at once.
    p.value("--retry-backoff-ms", "MS",
            "retry backoff base, doubling per attempt (default 50)",
            [&p, &cfg, &st](const std::string &v) {
                double ms = parseDouble(v);
                if (ms <= 0.0)
                    p.fail("--retry-backoff-ms must be positive");
                cfg.retryBackoffSeconds = ms / 1000.0;
                st.setRetry = true;
            });
    p.value("--retry-budget", "N",
            "cluster-wide retry cap, -1 = unbounded (default -1)",
            [&](const std::string &v) {
                cfg.retryBudget = parseInt64(v);
                st.setRetry = true;
            });
    p.flag("--hedge", "duplicate a dispatch when the deadline is threatened",
           [&]() { cfg.hedge = true; });
    p.value("--hedge-threshold", "F",
            "hedge when estimated delay > F x deadline (default 1)",
            [&](const std::string &v) {
                cfg.hedgeThreshold = parseDouble(v);
                st.setHedgeThreshold = true;
            });
    p.value("--brownout-depth", "D",
            "brown-out above this queue depth (default 0 = off)",
            [&](const std::string &v) {
                cfg.brownoutDepth = parseDouble(v);
            });
    p.value("--brownout-prio", "P",
            "max priority tier shed in brown-out (default 0)",
            [&](const std::string &v) {
                cfg.brownoutPriorityMax = parseInt(v);
                st.setBrownoutPrio = true;
            });
    p.value("--policy-tick-ms", "MS",
            "hedge/brown-out evaluation period (default 50)",
            [&](const std::string &v) {
                cfg.policyTickSeconds = parseDouble(v) / 1000.0;
                st.setPolicyTick = true;
            });
}

/**
 * Cross-check the chaos flags. The field ranges are
 * validateFaultPolicy's (via validateClusterConfig); this layer
 * catches the purely-CLI contradictions with flag vocabulary.
 */
inline void
validateFaultFlags(const FlagParser &p,
                   const coe::FaultPolicyConfig &cfg,
                   const FaultFlagState &st,
                   const coe::ServingConfig &serving)
{
    if (st.setRetry && !st.setFaults)
        p.fail("--retry-* flags configure recovery from injected "
               "faults; they require --faults FILE");
    if (st.setHedgeThreshold && !cfg.hedge)
        p.fail("--hedge-threshold requires --hedge");
    if (cfg.hedge && serving.workload.sloSeconds <= 0.0 &&
        serving.workload.traceIn.empty())
        p.fail("--hedge fires on SLO pressure; it needs --slo-ms or a "
               "replayed trace carrying deadlines (--trace-in)");
    if (st.setBrownoutPrio && cfg.brownoutDepth <= 0.0)
        p.fail("--brownout-prio requires --brownout-depth");
    if (st.setPolicyTick && !cfg.hedge && cfg.brownoutDepth <= 0.0)
        p.fail("--policy-tick-ms paces hedging and brown-out; it "
               "requires --hedge or --brownout-depth");
}

/** Capacity-planning flags (cluster subcommand). */
struct PlanFlagState
{
    bool plan = false;
    int maxNodes = 0;       ///< 0: plan up to --nodes
    double p95Ms = 0.0;     ///< SLO target, required with --plan-capacity
    double maxShedPct = 0.0;
    bool setMaxNodes = false;
    bool setP95 = false;
    bool setShed = false;
};

inline void
addPlanFlags(FlagParser &p, PlanFlagState &st)
{
    p.group("Capacity planning");
    p.flag("--plan-capacity",
           "report the smallest node count meeting the targets",
           [&]() { st.plan = true; });
    p.value("--plan-max-nodes", "N", "search ceiling (default --nodes)",
            [&](const std::string &v) {
                st.maxNodes = parseInt(v);
                st.setMaxNodes = true;
            });
    p.value("--plan-p95-ms", "MS", "p95 latency target (required)",
            [&](const std::string &v) {
                st.p95Ms = parseDouble(v);
                st.setP95 = true;
            });
    p.value("--plan-max-shed-pct", "P", "max shed percentage (default 0)",
            [&](const std::string &v) {
                st.maxShedPct = parseDouble(v);
                st.setShed = true;
            });
}

inline void
validatePlanFlags(const FlagParser &p, const PlanFlagState &st)
{
    if (!st.plan && (st.setMaxNodes || st.setP95 || st.setShed))
        p.fail("--plan-* flags require --plan-capacity");
    if (!st.plan)
        return;
    // Written so NaN fails too: no node count could ever meet it.
    if (!(st.setP95 && std::isfinite(st.p95Ms) && st.p95Ms > 0.0))
        p.fail("--plan-capacity needs a finite, positive --plan-p95-ms "
               "target");
    if (st.setMaxNodes && st.maxNodes < 1)
        p.fail("--plan-max-nodes must be at least 1");
    if (!(st.maxShedPct >= 0.0 && st.maxShedPct <= 100.0))
        p.fail("--plan-max-shed-pct must be in [0, 100]");
}

} // namespace sn40l::tools

#endif // SN40L_TOOLS_CLI_CONFIG_H

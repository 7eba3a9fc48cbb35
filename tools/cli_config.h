/**
 * @file
 * Shared sn40l_run flag tables. The serve / sweep / cluster
 * subcommands register the same workload, arrival, scenario, and
 * core-serving flags; those groups (and the cross-flag validation
 * that goes with them) live here so each flag is defined exactly
 * once and every subcommand rejects the same contradictions with the
 * same messages. The PR-6 control-plane flags (--controller-*,
 * --schedule, --plan-*) are declared here too, so the cluster
 * subcommand and any future consumer share one definition.
 *
 * Everything is a header-only helper over tools::FlagParser; the
 * functions only wire callbacks, so including this costs nothing at
 * runtime.
 */

#ifndef SN40L_TOOLS_CLI_CONFIG_H
#define SN40L_TOOLS_CLI_CONFIG_H

#include <cstdint>
#include <iostream>
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
    p.value("--platform", [&](const std::string &v) {
        cfg.platform = platformByName(v);
    });
    p.value("--tokens", [&](const std::string &v) {
        cfg.outputTokens = parseInt(v);
    });
    p.value("--requests", [&](const std::string &v) {
        cfg.streamRequests = parseInt(v);
    });
    p.value("--routing", [&](const std::string &v) {
        cfg.routing = coe::routingDistributionFromName(v);
    });
    p.value("--zipf-s", [&](const std::string &v) {
        cfg.zipfS = parseDouble(v);
        st.setZipfS = true;
    });
    p.flag("--prefetch", [&]() { cfg.predictivePrefetch = true; });
    p.value("--prefetch-depth", [&](const std::string &v) {
        cfg.prefetchDepth = parseInt(v);
        st.setPrefetchDepth = true;
    });
    p.value("--prefetch-window", [&](const std::string &v) {
        cfg.prefetchWindow = parseInt(v);
        st.setPrefetchWindow = true;
    });
    p.value("--dma-engines", [&](const std::string &v) {
        cfg.dmaEngines = parseInt(v);
    });
    p.value("--expert-region-gb", [&p, &cfg](const std::string &v) {
        double gb = parseDouble(v);
        if (gb <= 0.0)
            p.fail("--expert-region-gb must be positive");
        cfg.expertRegionBytes = static_cast<std::int64_t>(gb * 1e9);
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
    if (cfg.prefetchWindow < 0)
        p.fail("--prefetch-window must be non-negative");
    if (cfg.dmaEngines <= 0)
        p.fail("--dma-engines must be at least 1");
    if (cfg.prefetchDepth < 0)
        p.fail("--prefetch-depth must be non-negative");
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
    p.value("--arrival-rate", [&](const std::string &v) {
        cfg.arrivalRatePerSec = parseDouble(v);
        st.setArrivalRate = true;
    });
    p.flag("--closed-loop", [&]() {
        cfg.arrival = coe::ArrivalProcess::ClosedLoop;
        st.setClosedLoop = true;
    });
    p.value("--clients", [&](const std::string &v) {
        cfg.clients = parseInt(v);
        st.setClients = true;
    });
    p.value("--think", [&](const std::string &v) {
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
    p.value("--workload", [&](const std::string &v) {
        st.workloadName = v;
        st.setWorkload = true;
    });
    p.value("--tenants", [&](const std::string &v) {
        cfg.workload.tenants = parseInt(v);
        st.setTenants = true;
    });
    p.value("--slo-ms", [&p, &cfg](const std::string &v) {
        double ms = parseDouble(v);
        if (ms <= 0.0)
            p.fail("--slo-ms must be positive");
        cfg.workload.sloSeconds = ms / 1000.0;
    });
    p.value("--session-prob", [&](const std::string &v) {
        cfg.workload.sessionFollowProb = parseDouble(v);
        st.setSession = true;
    });
    p.value("--session-think", [&](const std::string &v) {
        cfg.workload.sessionThinkSeconds = parseDouble(v);
        st.setSession = true;
    });
    p.value("--session-turns", [&](const std::string &v) {
        cfg.workload.sessionMaxTurns = parseInt(v);
        st.setSession = true;
    });
    p.value("--burst-factor", [&](const std::string &v) {
        cfg.workload.shape.burstFactor = parseDouble(v);
        st.setBurst = true;
    });
    p.value("--burst-every", [&](const std::string &v) {
        cfg.workload.shape.burstEverySeconds = parseDouble(v);
        st.setBurst = true;
    });
    p.value("--burst-seconds", [&](const std::string &v) {
        cfg.workload.shape.burstSeconds = parseDouble(v);
        st.setBurst = true;
    });
    p.value("--trace-out", [&](const std::string &v) {
        cfg.workload.traceOut = v;
    });
    p.value("--trace-in", [&](const std::string &v) {
        cfg.workload.traceIn = v;
    });
}

/**
 * Resolve and cross-check the scenario flags. Library-level
 * validation (validateWorkloadConfig) still runs afterwards; this
 * layer catches the purely-CLI contradictions with messages naming
 * the subcommand.
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
    if (st.setTenants) {
        if (st.setWorkload && st.workloadName != "mix")
            p.fail("--tenants requires --workload mix");
        if (cfg.workload.tenants < 1)
            p.fail("--tenants must be at least 1");
    }
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
 * Core serving scalars shared by serve and cluster (sweep keeps list
 * versions of these as grid axes). The scheduler stays a string so
 * serve can accept its "both" comparison mode; callers resolve it
 * after parsing.
 */
inline void
addCoreServingFlags(FlagParser &p, coe::ServingConfig &cfg,
                    std::string &scheduler_name,
                    bool *set_experts = nullptr)
{
    p.value("--experts", [&cfg, set_experts](const std::string &v) {
        cfg.numExperts = parseInt(v);
        if (set_experts)
            *set_experts = true;
    });
    p.value("--batch", [&](const std::string &v) {
        cfg.batch = parseInt(v);
    });
    p.value("--seed", [&](const std::string &v) {
        cfg.seed = parseUint64(v);
    });
    p.value("--scheduler",
            [&](const std::string &v) { scheduler_name = v; });
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
    p.flag("--spec-decode", [&]() { cfg.specDecode.enabled = true; });
    p.value("--spec-gamma", [&](const std::string &v) {
        cfg.specDecode.gamma = parseInt(v);
        st.setGamma = true;
    });
    p.value("--spec-accept", [&](const std::string &v) {
        cfg.specDecode.acceptRate = parseDouble(v);
        st.setAccept = true;
    });
    p.value("--spec-draft-ratio", [&](const std::string &v) {
        cfg.specDecode.draftRatio = parseDouble(v);
        st.setDraftRatio = true;
    });
    p.value("--zoo-adapters", [&](const std::string &v) {
        cfg.zoo.enabled = true;
        cfg.numExperts = parseInt(v);
        st.setZooAdapters = true;
    });
    p.value("--zoo-rank", [&](const std::string &v) {
        cfg.zoo.rank = parseInt(v);
        st.setZooRank = true;
    });
    p.value("--zoo-churn", [&](const std::string &v) {
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
    if (cfg.specDecode.enabled) {
        if (cfg.specDecode.gamma < 0)
            p.fail("--spec-gamma must be non-negative");
        if (!(cfg.specDecode.acceptRate >= 0.0 &&
              cfg.specDecode.acceptRate <= 1.0))
            p.fail("--spec-accept must be in [0, 1]");
        if (!(cfg.specDecode.draftRatio > 0.0 &&
              cfg.specDecode.draftRatio < 1.0))
            p.fail("--spec-draft-ratio must be in (0, 1)");
    }
    if (!st.setZooAdapters && (st.setZooRank || st.setZooChurn))
        p.fail("--zoo-rank/--zoo-churn require --zoo-adapters");
    if (st.setZooAdapters) {
        if (set_experts)
            p.fail("--zoo-adapters replaces the expert set; it cannot "
                   "be combined with --experts");
        if (cfg.numExperts <= 0)
            p.fail("--zoo-adapters must be positive");
        if (cfg.zoo.rank <= 0)
            p.fail("--zoo-rank must be at least 1");
        if (cfg.zoo.churnEverySeconds < 0.0)
            p.fail("--zoo-churn must be non-negative");
    }
}

// --------------------------------------------- execution groups

/** Parallel-execution flags (cluster subcommand). */
struct ExecFlagState
{
    int threads = 1;
    bool setThreads = false;
};

/**
 * --threads / -j pick the worker count for the run. 1 is the
 * bit-exact single-queue path; N > 1 shards the event queue per node
 * (ClusterConfig::threads).
 */
inline void
addExecFlags(FlagParser &p, ExecFlagState &st)
{
    auto parse = [&p, &st](const std::string &v) {
        st.threads = parseInt(v);
        if (st.threads < 1)
            p.fail("--threads must be at least 1");
        st.setThreads = true;
    };
    p.value("--threads", parse);
    p.value("-j", parse);
}

/**
 * The cluster --threads flag matrix. Parallel runs compose fine with
 * --controller*, --schedule, and --trace-in (control actuations fire
 * at window barriers); what they cannot do is anything that closes a
 * feedback loop from the node shards back into arrival generation or
 * dispatch mid-window. Those are rejected here with CLI vocabulary;
 * ClusterSimulator re-validates at the config level for non-CLI
 * callers.
 */
inline void
validateClusterExecFlags(const FlagParser &p, const ExecFlagState &st,
                         const coe::ServingConfig &cfg,
                         coe::DispatchPolicy dispatch,
                         const ArrivalFlagState &ast,
                         const ScenarioFlagState &sst)
{
    if (st.threads <= 1)
        return;
    if (cfg.arrival == coe::ArrivalProcess::ClosedLoop)
        p.fail("the cluster subcommand cannot combine --threads > 1 "
               "with closed-loop arrivals (--closed-loop/--workload "
               "closed-loop): batch completions re-issue clients "
               "instantly, leaving parallel windows zero lookahead");
    if (ast.setClients || ast.setThink)
        p.fail("the cluster subcommand cannot combine --threads > 1 "
               "with --clients/--think (closed-loop parameters)");
    if (sst.setSession && cfg.workload.traceIn.empty())
        p.fail("the cluster subcommand cannot combine --threads > 1 "
               "with generated --session-* workloads (follow-up turns "
               "are coupled to node-side completions); record a trace "
               "and replay it with --trace-in, or use --threads 1");
    if (dispatch == coe::DispatchPolicy::LeastOutstanding)
        p.fail("the cluster subcommand cannot combine --threads > 1 "
               "with --dispatch least-outstanding (per-node queue "
               "state is stale mid-window); use round-robin or "
               "expert-affinity");
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
    p.value("--controller", [&](const std::string &v) {
        cfg.policy = coe::controllerPolicyFromName(v);
        st.setPolicy = true;
    });
    p.value("--controller-tick", [&](const std::string &v) {
        cfg.tickSeconds = parseDouble(v);
        st.setTuning = true;
    });
    p.value("--controller-min", [&](const std::string &v) {
        cfg.minNodes = parseInt(v);
        st.setTuning = true;
    });
    p.value("--controller-max", [&](const std::string &v) {
        cfg.maxNodes = parseInt(v);
        st.setTuning = true;
    });
    p.value("--controller-up-depth", [&](const std::string &v) {
        cfg.scaleUpQueueDepth = parseDouble(v);
        st.setTuning = true;
    });
    p.value("--controller-down-depth", [&](const std::string &v) {
        cfg.scaleDownQueueDepth = parseDouble(v);
        st.setTuning = true;
    });
    p.value("--controller-target-util", [&](const std::string &v) {
        cfg.targetUtilization = parseDouble(v);
        st.setTuning = true;
    });
    p.value("--controller-cooldown", [&](const std::string &v) {
        cfg.cooldownTicks = parseInt(v);
        st.setTuning = true;
    });
    p.value("--controller-hot", [&](const std::string &v) {
        cfg.hotExpertTrack = parseInt(v);
        st.setTuning = true;
    });
    p.value("--controller-log", [&](const std::string &v) {
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

struct FabricFlagState
{
    bool setLinkGbps = false;
    bool setLinkLatency = false;
    bool setLinkBuffer = false;
};

/**
 * Interconnect flags (cluster subcommand). --topology switches the
 * cluster from instantaneous hub->node handoff onto the event-driven
 * link/credit fabric (coe/fabric.h); the --link-* knobs tune it and
 * require it. Off by default: without --topology the run is
 * byte-identical to a pre-fabric build.
 */
inline void
addFabricFlags(FlagParser &p, coe::FabricConfig &cfg,
               FabricFlagState &st)
{
    p.value("--topology", [&](const std::string &v) {
        cfg.topology = sim::topologyFromName(v);
        cfg.enabled = true;
    });
    p.value("--link-gbps", [&p, &cfg, &st](const std::string &v) {
        cfg.linkGbps = parseDouble(v);
        if (cfg.linkGbps <= 0.0)
            p.fail("--link-gbps must be positive");
        st.setLinkGbps = true;
    });
    p.value("--link-latency-us", [&p, &cfg, &st](const std::string &v) {
        cfg.linkLatencyUs = parseDouble(v);
        if (cfg.linkLatencyUs < 0.0)
            p.fail("--link-latency-us must be non-negative");
        st.setLinkLatency = true;
    });
    p.value("--link-buffer-flits", [&p, &cfg, &st](const std::string &v) {
        cfg.linkBufferFlits = parseInt(v);
        if (cfg.linkBufferFlits < 1)
            p.fail("--link-buffer-flits must be at least 1");
        st.setLinkBuffer = true;
    });
}

inline void
validateFabricFlags(const FlagParser &p, const coe::FabricConfig &cfg,
                    const FabricFlagState &st,
                    coe::DispatchPolicy dispatch)
{
    if (!cfg.enabled &&
        (st.setLinkGbps || st.setLinkLatency || st.setLinkBuffer))
        p.fail("--link-* flags tune the interconnect; they require "
               "--topology");
    if (dispatch == coe::DispatchPolicy::TopologyAware && !cfg.enabled)
        p.fail("--dispatch topo-aware routes around fabric congestion; "
               "it requires --topology");
    // Field checks (finite, in range) before anything is printed.
    coe::validateFabricConfig(cfg);
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
    p.value("--faults", [&](const std::string &v) {
        st.faultsPath = v;
        st.setFaults = true;
    });
    p.value("--retry-max", [&](const std::string &v) {
        cfg.retryMax = parseInt(v);
        st.setRetry = true;
    });
    p.value("--retry-backoff-ms", [&p, &cfg, &st](const std::string &v) {
        double ms = parseDouble(v);
        if (ms <= 0.0)
            p.fail("--retry-backoff-ms must be positive");
        cfg.retryBackoffSeconds = ms / 1000.0;
        st.setRetry = true;
    });
    p.value("--retry-budget", [&](const std::string &v) {
        cfg.retryBudget = parseInt64(v);
        st.setRetry = true;
    });
    p.flag("--hedge", [&]() { cfg.hedge = true; });
    p.value("--hedge-threshold", [&](const std::string &v) {
        cfg.hedgeThreshold = parseDouble(v);
        st.setHedgeThreshold = true;
    });
    p.value("--brownout-depth", [&](const std::string &v) {
        cfg.brownoutDepth = parseDouble(v);
    });
    p.value("--brownout-prio", [&](const std::string &v) {
        cfg.brownoutPriorityMax = parseInt(v);
        st.setBrownoutPrio = true;
    });
    p.value("--policy-tick-ms", [&p, &cfg, &st](const std::string &v) {
        double ms = parseDouble(v);
        if (ms <= 0.0)
            p.fail("--policy-tick-ms must be positive");
        cfg.policyTickSeconds = ms / 1000.0;
        st.setPolicyTick = true;
    });
}

/**
 * Cross-check the chaos flags. Library-level validation
 * (validateFaultPolicy / validateFaultSchedule) still runs inside
 * ClusterSimulator; this layer catches the purely-CLI contradictions
 * with flag vocabulary.
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
    if (cfg.retryMax < 0)
        p.fail("--retry-max must be non-negative");
    if (cfg.retryBudget < -1)
        p.fail("--retry-budget must be -1 (unbounded) or non-negative");
    if (st.setHedgeThreshold && !cfg.hedge)
        p.fail("--hedge-threshold requires --hedge");
    if (cfg.hedge && cfg.hedgeThreshold <= 0.0)
        p.fail("--hedge-threshold must be positive");
    if (cfg.hedge && serving.workload.sloSeconds <= 0.0 &&
        serving.workload.traceIn.empty())
        p.fail("--hedge fires on SLO pressure; it needs --slo-ms or a "
               "replayed trace carrying deadlines (--trace-in)");
    if (st.setBrownoutPrio && cfg.brownoutDepth <= 0.0)
        p.fail("--brownout-prio requires --brownout-depth");
    if (cfg.brownoutDepth < 0.0)
        p.fail("--brownout-depth must be non-negative");
    if (cfg.brownoutPriorityMax < 0)
        p.fail("--brownout-prio must be non-negative");
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
    p.flag("--plan-capacity", [&]() { st.plan = true; });
    p.value("--plan-max-nodes", [&](const std::string &v) {
        st.maxNodes = parseInt(v);
        st.setMaxNodes = true;
    });
    p.value("--plan-p95-ms", [&](const std::string &v) {
        st.p95Ms = parseDouble(v);
        st.setP95 = true;
    });
    p.value("--plan-max-shed-pct", [&](const std::string &v) {
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
    if (!st.setP95 || st.p95Ms <= 0.0)
        p.fail("--plan-capacity needs a positive --plan-p95-ms target");
    if (st.setMaxNodes && st.maxNodes < 1)
        p.fail("--plan-max-nodes must be at least 1");
    if (st.maxShedPct < 0.0 || st.maxShedPct > 100.0)
        p.fail("--plan-max-shed-pct must be in [0, 100]");
}

} // namespace sn40l::tools

#endif // SN40L_TOOLS_CLI_CONFIG_H

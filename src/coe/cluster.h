/**
 * @file
 * Multi-node CoE serving cluster: N per-node serving stacks (each a
 * ServingEngine with its own CoeRuntime and mem::MemorySystem),
 * fronted by a cluster router. Every stack, the router and the
 * interconnect share one sim::EventQueue.
 *
 * The paper serves 150 experts from one 8-socket SN40L node; scaling
 * to "millions of users" means sharding the expert pool across many
 * nodes, which splits the serving problem into two pluggable
 * decisions, the regime CoServe (arXiv:2503.02354) studies:
 *
 *  - expert *placement*: which nodes may serve which experts. Full
 *    replication burns HBM on every node but lets any node serve any
 *    prompt; balanced partition minimizes footprint but funnels each
 *    expert's traffic to a single node; Zipf-aware replicate-hot /
 *    partition-cold replicates the head of the popularity curve and
 *    shards the tail.
 *
 *  - request *dispatch*: which hosting node a prompt goes to.
 *    Round-robin, least-outstanding, or expert-affinity via
 *    consistent hashing (an expert sticks to its "home" node until
 *    the node set changes).
 *
 * The simulator is observable and actuable mid-run, not just
 * configure-then-run-to-completion: begin() stands the cluster up on
 * its event queue, MetricsSnapshot exposes windowed rates / per-node
 * queue state / per-expert hit counts at any point, and the runtime
 * actuators drainNode() / rejoinNode() / migrateExpert() /
 * setReplication() / setRateFactor() generalize the old one-shot
 * drain scenario. ScheduledAction scripts those actuators at fixed
 * times, and coe::ClusterController (controller.h) closes the loop
 * with a policy. run() still does the whole dance in one call.
 *
 * The cluster is the only event-driven driver: ServingSimulator's
 * EventDriven mode runs a 1-node, full-replication cluster, so
 * finish() is the one place that turns engines into StreamMetrics,
 * the Fig 1 per-batch split and the run's counters.
 */

#ifndef SN40L_COE_CLUSTER_H
#define SN40L_COE_CLUSTER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coe/controller.h"
#include "coe/fabric.h"
#include "coe/faults.h"
#include "coe/serving.h"
#include "sim/event_queue.h"

namespace sn40l::coe {

struct EngineRequest; // serving_engine.h
class ServingEngine;  // serving_engine.h

/** How the cluster router picks a hosting node for a prompt. */
enum class DispatchPolicy {
    RoundRobin,       ///< cycle through the expert's eligible hosts
    LeastOutstanding, ///< eligible host with fewest in-flight requests
    ExpertAffinity,   ///< consistent hashing: stable expert -> node map
    TopologyAware,    ///< eligible host with the least-congested path
                      ///< from the hub (requires the fabric)
};

const char *dispatchPolicyName(DispatchPolicy policy);
DispatchPolicy dispatchPolicyFromName(const std::string &name);

/** Which nodes hold (and may serve) each expert. */
enum class PlacementPolicy {
    FullReplication,          ///< every expert on every node
    ReplicateHotPartitionCold, ///< hot head replicated, cold tail sharded
    BalancedPartition,        ///< every expert on exactly one node
};

const char *placementPolicyName(PlacementPolicy policy);
PlacementPolicy placementPolicyFromName(const std::string &name);

/** Per-node overrides for heterogeneous clusters (0 keeps the base). */
struct ClusterNodeOverride
{
    int node = -1;
    int dmaEngines = 0;
    std::int64_t expertRegionBytes = 0;
};

/** What a ScheduledAction does when its time arrives. */
enum class ActionKind {
    Drain,        ///< node stops accepting; queued work re-dispatches
    Rejoin,       ///< node returns cold (resident set flushed)
    RateOverride, ///< multiply the open-loop arrival rate by a factor
};

const char *actionKindName(ActionKind kind);

/**
 * One scripted actuation at a fixed time. Actions fire in list order
 * when times tie; each maps onto the same runtime actuator the
 * controller uses, so scripted and closed-loop runs share one
 * mechanism.
 */
struct ScheduledAction
{
    double atSeconds = 0.0;  ///< finite, >= 0
    ActionKind kind = ActionKind::Drain;
    int node = 0;            ///< Drain / Rejoin target
    double rateFactor = 1.0; ///< RateOverride multiplier (finite, > 0)
};

struct ClusterConfig
{
    /**
     * The per-node serving stack (platform, experts, batch, scheduler,
     * prefetch, arrivals). mode is forced to EventDriven; streamRequests,
     * routing, and the arrival process are cluster-wide.
     */
    ServingConfig node;

    int nodes = 1;
    DispatchPolicy dispatch = DispatchPolicy::RoundRobin;
    PlacementPolicy placement = PlacementPolicy::FullReplication;

    /**
     * Ignored; runs are always serial. Kept until the benchmark's
     * parallel pass is dropped.
     */
    int threads = 1;

    /**
     * Experts replicated on every node under ReplicateHotPartitionCold
     * (the head of the popularity order); 0 derives numExperts / 10
     * (at least 1).
     */
    int hotExperts = 0;

    /** Scripted actuations, applied in time (then list) order. */
    std::vector<ScheduledAction> actions;

    /** Closed-loop control plane; Static leaves the run untouched. */
    ControllerConfig controller;

    /**
     * Diurnal ramp (Poisson arrivals only): the instantaneous rate is
     * arrivalRatePerSec * (1 + amplitude * sin(2*pi*t / period)).
     * amplitude in [0, 1); 0 disables.
     */
    double diurnalAmplitude = 0.0;
    double diurnalPeriodSeconds = 86400.0;

    std::vector<ClusterNodeOverride> overrides;

    /**
     * Chaos layer (coe/faults.h): a scripted fault schedule (null or
     * empty arms nothing — the fault-free path is bit-identical to a
     * cluster without the chaos layer) and the degraded-mode policy
     * knobs, all disabled by default. Shared pointer for the same
     * reason as traceEntries: a sweep parses the schedule once and
     * shares it across points.
     */
    std::shared_ptr<const std::vector<FaultEvent>> faults;
    FaultPolicyConfig faultPolicy;

    /**
     * Interconnect model (coe/fabric.h). Disabled by default: the
     * zero-network cluster moves requests and expert payloads
     * instantaneously and stays byte-identical to pre-fabric runs.
     * When enabled, dispatch, drain re-placement, and migration
     * traffic pay link serialization, latency, and credit
     * backpressure on the configured topology.
     */
    FabricConfig fabric;
};

/**
 * Reject invalid or contradictory ClusterConfig fields (the node
 * stack via validateServingConfig, then the cluster, schedule,
 * controller, fabric and fault fields) with a FatalError naming the
 * field and its flag. node.mode is taken as given; ClusterSimulator
 * forces EventDriven first. The CLI calls this before it prints.
 */
void validateClusterConfig(const ClusterConfig &cfg);

/** Static expert-to-node placement map. */
struct ExpertPlacement
{
    std::vector<std::vector<int>> hostsOfExpert; ///< expert -> node ids
    std::vector<std::vector<int>> expertsOfNode; ///< node -> expert ids
    int replicas = 0; ///< total (expert, node) pairs
};

/**
 * Build the placement for @p experts experts over @p nodes nodes.
 * Expert ids are popularity order (Zipf routing makes id 0 hottest);
 * @p hot_experts only matters for ReplicateHotPartitionCold.
 */
ExpertPlacement makePlacement(PlacementPolicy policy, int experts,
                              int nodes, int hot_experts);

/** One node's slice of a MetricsSnapshot. */
struct NodeSnapshot
{
    int node = 0;
    bool live = true;
    bool wasDrained = false;        ///< drained at some point so far
    std::int64_t queueDepth = 0;    ///< instantaneous admission queue
    std::int64_t outstanding = 0;   ///< injected - completed
    std::int64_t dispatched = 0;    ///< in the window
    std::int64_t completed = 0;     ///< in the window
    std::int64_t misses = 0;        ///< in the window
    std::int64_t shed = 0;          ///< in the window
};

/**
 * Windowed mid-run observation of the cluster, pollable between
 * events (ClusterSimulator::snapshot()). Rates cover the window since
 * the previous snapshot; queue depths are instantaneous. This one
 * struct feeds the controller, the --json reporters, and the
 * controller's JSONL log.
 */
struct MetricsSnapshot
{
    double atSeconds = 0.0;     ///< sim time of this snapshot
    double windowSeconds = 0.0; ///< since the previous snapshot

    std::int64_t arrivals = 0;  ///< emitted in the window
    std::int64_t completions = 0;
    std::int64_t shed = 0;
    double arrivalRatePerSec = 0.0;
    double completionRatePerSec = 0.0;

    /**
     * Chaos-layer counters in the window (coe/faults.h), so the
     * controller can react to failure, not just load. All zero on
     * fault-free runs.
     */
    std::int64_t lost = 0;
    std::int64_t retried = 0;
    std::int64_t hedged = 0;
    std::int64_t hedgeWon = 0;

    int liveNodes = 0;
    double meanQueueDepthPerLiveNode = 0.0; ///< instantaneous
    double nodeSecondsLive = 0.0; ///< cumulative live node-seconds

    std::vector<NodeSnapshot> nodes;
    /** Windowed dispatch hits per expert id (popularity signal). */
    std::vector<std::int64_t> expertHits;

    /**
     * Per-link windowed utilization when the fabric is enabled
     * (empty otherwise): busy ticks in the window / window ticks.
     */
    struct LinkSnapshot
    {
        std::string from; ///< node label ("ep3" / "sw0")
        std::string to;
        double utilization = 0.0;
    };
    std::vector<LinkSnapshot> links;
};

struct ClusterNodeMetrics
{
    int node = 0;
    bool drained = false;       ///< was drained at some point
    std::int64_t dispatched = 0; ///< requests routed to this node
    std::int64_t redispatched = 0; ///< drained away before forming
    std::int64_t completed = 0;
    std::int64_t batches = 0;
    std::int64_t misses = 0;
    std::int64_t shed = 0; ///< refused by this node's SLO admission
    double missRate = 0.0;
    double p50LatencySeconds = 0.0;
    double p95LatencySeconds = 0.0;
    double meanQueueDepth = 0.0;
    double maxQueueDepth = 0.0;
    int placedExperts = 0;
    double placedBytes = 0.0;       ///< expert bytes placed on the node
    std::int64_t peakResidentBytes = 0; ///< HBM high-water mark
};

struct ClusterResult
{
    bool oom = false; ///< some node's placed experts exceed its DDR
    StreamMetrics stream; ///< cluster-wide (exact merged distributions)
    double missRate = 0.0;

    /**
     * The Fig 1 split: router, expert-switch and exec seconds summed
     * over every engine's batches, divided by the total batch count.
     */
    LatencyBreakdown perBatch;
    std::vector<ClusterNodeMetrics> nodes;

    /** max / mean completed requests per node (1.0 = perfectly even). */
    double loadImbalance = 1.0;

    int expertReplicas = 0;       ///< total placed (expert, node) pairs
    double placedBytesTotal = 0.0; ///< HBM the placement asks for
    std::int64_t peakResidentBytesTotal = 0; ///< measured HBM high-water
    std::int64_t redispatched = 0; ///< requests moved by drains

    /**
     * Provisioning cost: the time-integral of the live node count
     * over the run (what an autoscaler is minimizing). Without
     * drains every node is live for the whole makespan.
     */
    double nodeSecondsLive = 0.0;
    double nodeHours = 0.0;

    /** Control-plane accounting (0 under ControllerPolicy::Static). */
    std::int64_t controllerTicks = 0;
    std::int64_t controllerActions = 0;

    /** Chaos-layer accounting (0 without a fault schedule). */
    std::int64_t faultsInjected = 0;
    std::int64_t crashes = 0;

    /** Interconnect accounting (all 0 without the fabric). */
    std::int64_t networkMessages = 0;
    std::int64_t networkFlits = 0;
    std::int64_t networkCreditStalls = 0;
    double networkMaxLinkUtilization = 0.0;  ///< busy / makespan
    double networkMeanLinkUtilization = 0.0;
};

class ClusterSimulator
{
  public:
    /** Validates the config (FatalError on contradictions). */
    explicit ClusterSimulator(ClusterConfig cfg);
    ~ClusterSimulator();

    /**
     * The one-call form: begin(), start the controller when the
     * config asks for one, run the queue dry, finish(). Re-runnable;
     * each call stands up a fresh run.
     */
    ClusterResult run();

    // ---- mid-run surface (what the controller and tests drive) ----

    /**
     * Stand the cluster up without running it: placement, engines,
     * scripted actions, and the workload are live on eventQueue().
     * @return false when the placement is infeasible (OOM) — the run
     * is not active and finish() must not be called.
     */
    bool begin();

    /** Drain the event queue and assemble the ClusterResult. */
    ClusterResult finish();

    /**
     * The active run's queue (begin() first). The controller and the
     * fault injector schedule on it; tests step it.
     */
    sim::EventQueue &eventQueue();
    /**
     * Node @p node's engine in the active run (begin() first). Tests
     * read its completion log (ServingEngine::setLogCompletions).
     */
    ServingEngine &engine(int node);

    /** Windowed observation; advances the snapshot window. */
    MetricsSnapshot snapshot();

    /**
     * Runtime actuators. Each returns true when it changed state and
     * false for a no-op (already drained, already at that replica
     * count, infeasible target); out-of-range ids are FatalErrors.
     * drainNode() refuses to drain the last live node; migrate /
     * setReplication refuse targets whose DDR the move would exceed.
     */
    bool drainNode(int node);
    bool rejoinNode(int node);
    bool migrateExpert(int expert, int from, int to);
    bool setReplication(int expert, int replicas);

    /** Multiply the open-loop arrival rate from now on (> 0). */
    void setRateFactor(double factor);

    // ---- chaos actuators (driven by coe::FaultInjector) -----------
    // Each must run inside an event, exactly like the actuators above.

    /**
     * Crash @p node mid-batch: unlike drainNode() the in-flight batch
     * is abandoned too, and displaced requests go through the retry
     * policy (re-dispatched with original arrival timestamps under
     * the budget) or are counted lost — nothing is silently dropped.
     * Refuses the last live node and already-down nodes.
     */
    bool crashNode(int node);
    /** Stretch @p node's DMA completions by @p factor (1.0 heals). */
    void setNodeDmaFactor(int node, double factor);
    /** Straggler: multiply @p node's prompt execution (1.0 heals). */
    void setNodeServiceFactor(int node, double factor);
    /** Dispatches to @p node fail with probability @p p (0 heals). */
    void setNodeFlakyProbability(int node, double p);
    /**
     * Stretch the serialization time of every fabric link adjacent
     * to @p node by @p factor >= 1 (1.0 heals). Requires the fabric;
     * the constructor rejects link-degrade schedules without it.
     */
    void setNodeLinkFactor(int node, double factor);

    /** Live nodes in the active run. */
    int liveNodes() const;

    /** True once the budget is emitted and every engine is drained. */
    bool idle() const;

    const ClusterConfig &config() const { return cfg_; }

    /** Current placement of the active run (mutated by actuators). */
    const ExpertPlacement &placement() const;

    const PhaseCosts &phaseCosts() const { return costs_; }

    /** Cluster-wide per-request latency samples from the last run. */
    const sim::Distribution &latencySamples() const { return latency_; }

    /** Cluster-wide per-batch exposed expert-load stalls. */
    const sim::Distribution &stallSamples() const { return stalls_; }

    /**
     * The last run's counters that no typed result field carries: the
     * hub's events, the engines' own counters summed, and misses and
     * DMA loads.
     */
    const sim::StatSet &stats() const { return stats_; }

  private:
    struct RunState;

    int pickNode(int expert);
    void accrueNodeSeconds();

    // ---- degraded-mode policy internals (cluster.cc) -------------
    void dispatchRequest(const TrafficRequest &request);
    void handleDisplaced(EngineRequest request);
    void redispatch(EngineRequest request);
    void forwardRequest(int node, EngineRequest request);
    void deliverViaFabric(int node, EngineRequest request);
    double estimateDelaySeconds(int node) const;
    void policyTick();
    void armPolicyTick();
    void resolveHedges();
    void creditHedgeWin(double dup_latency);
    void commitMigration(int expert, int from, int to, double bytes);

    ClusterConfig cfg_;
    PhaseCosts costs_;
    sim::Distribution latency_{"cluster_latency"};
    sim::Distribution stalls_{"cluster_stall"};
    sim::StatSet stats_{"cluster"};
    std::unique_ptr<RunState> rs_; ///< non-null between begin/finish
    std::unique_ptr<ClusterController> controller_;
    std::unique_ptr<FaultInjector> faults_;
};

} // namespace sn40l::coe

#endif // SN40L_COE_CLUSTER_H

#include "coe/cluster.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "coe/serving_engine.h"
#include "coe/workload.h"
#include "sim/log.h"
#include "sim/rng.h"
#include "sim/ticks.h"

namespace sn40l::coe {

const char *
placementPolicyName(PlacementPolicy policy)
{
    switch (policy) {
      case PlacementPolicy::FullReplication: return "replication";
      case PlacementPolicy::ReplicateHotPartitionCold:
          return "replicate-hot";
      case PlacementPolicy::BalancedPartition: return "partition";
    }
    sim::panic("placementPolicyName: unknown policy");
}

PlacementPolicy
placementPolicyFromName(const std::string &name)
{
    if (name == "replication" || name == "full-replication")
        return PlacementPolicy::FullReplication;
    if (name == "replicate-hot" || name == "hot")
        return PlacementPolicy::ReplicateHotPartitionCold;
    if (name == "partition" || name == "balanced-partition")
        return PlacementPolicy::BalancedPartition;
    sim::fatal("unknown placement policy '" + name +
               "' (expected replication, replicate-hot, or partition)");
}

const char *
actionKindName(ActionKind kind)
{
    switch (kind) {
      case ActionKind::Drain: return "drain";
      case ActionKind::Rejoin: return "rejoin";
      case ActionKind::RateOverride: return "rate";
    }
    sim::panic("actionKindName: unknown kind");
}

ExpertPlacement
makePlacement(PlacementPolicy policy, int experts, int nodes,
              int hot_experts)
{
    if (experts <= 0 || nodes <= 0)
        sim::fatal("makePlacement: non-positive expert or node count");
    ExpertPlacement p;
    p.hostsOfExpert.resize(static_cast<std::size_t>(experts));
    p.expertsOfNode.resize(static_cast<std::size_t>(nodes));
    auto place = [&p](int e, int n) {
        p.hostsOfExpert[static_cast<std::size_t>(e)].push_back(n);
        p.expertsOfNode[static_cast<std::size_t>(n)].push_back(e);
        ++p.replicas;
    };
    switch (policy) {
      case PlacementPolicy::FullReplication:
        for (int e = 0; e < experts; ++e)
            for (int n = 0; n < nodes; ++n)
                place(e, n);
        break;
      case PlacementPolicy::BalancedPartition:
        for (int e = 0; e < experts; ++e)
            place(e, e % nodes);
        break;
      case PlacementPolicy::ReplicateHotPartitionCold: {
        int hot = hot_experts > 0 ? std::min(hot_experts, experts)
                                  : std::max(1, experts / 10);
        for (int e = 0; e < hot; ++e)
            for (int n = 0; n < nodes; ++n)
                place(e, n);
        // Cold tail sharded round-robin; id order is popularity order
        // under Zipf routing, so the shards stay load-balanced.
        for (int e = hot; e < experts; ++e)
            place(e, e % nodes);
        break;
      }
    }
    return p;
}

namespace {

/**
 * One cumulative read of a run's counters (RunState::readTotals()).
 * snapshot() reports the difference of two reads; finish() reports
 * the last one.
 */
struct RunTotals
{
    sim::Tick at = 0;
    std::int64_t arrivals = 0;
    /** Engine completions plus hedge wins, which only the hub credits. */
    std::int64_t completions = 0;
    /** Engine SLO sheds plus brown-out sheds at the hub. */
    std::int64_t shed = 0;
    std::int64_t misses = 0;
    std::int64_t lost = 0;
    std::int64_t retried = 0;
    std::int64_t hedged = 0;
    std::int64_t hedgeWon = 0;

    struct Node
    {
        std::int64_t dispatched = 0;
        std::int64_t completed = 0;
        std::int64_t misses = 0;
        std::int64_t shed = 0;
    };
    std::vector<Node> nodes;
    std::vector<std::int64_t> expertHits;
    std::vector<sim::Tick> linkBusy; ///< empty without the fabric
};

} // namespace

/**
 * Everything a run stands up between begin() and finish(): the event
 * queue, engines, dispatch state and the run's counters. One fresh
 * RunState per begin(), so the simulator stays re-runnable.
 */
struct ClusterSimulator::RunState final : DispatchSignals
{
    RunState(const ClusterConfig &cfg, ExpertPlacement placement_in,
             sim::StatSet &stats)
        : placement(std::move(placement_in)),
          recorder(cfg.node.workload.traceOut),
          wasDrained(static_cast<std::size_t>(cfg.nodes), 0),
          dispatchedTo(static_cast<std::size_t>(cfg.nodes), 0),
          redispatchedFrom(static_cast<std::size_t>(cfg.nodes), 0),
          hedged(stats.counter("hedged")),
          brownoutShed(stats.counter("brownout_shed")),
          flakyFailures(stats.counter("flaky_failures")),
          networkDisplaced(stats.counter("network_displaced")),
          dispatchFallbacks(stats.counter("dispatch_fallbacks")),
          dispatcher(cfg.dispatch, placement, cfg.nodes, *this,
                     dispatchFallbacks)
    {
    }

    /** The run's counters as of now, all cumulative since begin(). */
    RunTotals readTotals() const;

    // ---- what the dispatcher reads per pick
    std::int64_t
    outstanding(int node) const override
    {
        return engines[static_cast<std::size_t>(node)]->outstanding();
    }
    double
    hubCongestion(int node) override
    {
        return fabric->hubCongestion(node);
    }
    std::int64_t
    dispatched(int node) const override
    {
        return dispatchedTo[static_cast<std::size_t>(node)];
    }

    sim::EventQueue eq; ///< shared by the hub, fabric and every engine
    ExpertPlacement placement; ///< the dispatcher reads it by reference
    std::vector<ServingConfig> nodeCfg;
    std::vector<PhaseCosts> nodeCosts;
    std::vector<double> expertBytes;    ///< per expert id
    std::vector<double> placedBytesNow; ///< per node, actuator-updated
    std::unique_ptr<WorkloadModel> workload;
    TraceRecorder recorder;
    std::vector<std::unique_ptr<ServingEngine>> engines;

    // ---- dispatch state (liveness lives in the dispatcher)
    std::vector<char> wasDrained;
    std::vector<std::int64_t> dispatchedTo;
    std::vector<std::int64_t> redispatchedFrom;
    sim::Tick firstArrival = -1;

    // ---- node-hours accounting
    sim::Tick liveMark = 0;
    double nodeSecondsLive = 0.0;

    /** The read the current snapshot window started from. */
    RunTotals lastRead;

    // ---- chaos-layer state (coe/faults.h; inert when no schedule
    // ---- and no policy knob is enabled)
    /**
     * Hub-side view of each node's degradation, written only by the
     * chaos actuators. The hedge estimate reads these instead of
     * engine state: the policy models a router that knows what it was
     * told about a node, not the node's live internals.
     */
    std::vector<double> serviceFactor;
    std::vector<double> dmaFactor;
    std::vector<double> flakyProb;
    /**
     * Per-node completed + shed as of the last policy tick — the ONLY
     * place the hub refreshes its backlog view. The policy models a
     * router with a periodic view of its nodes, so hedge decisions at
     * dispatch time use tick-stale data.
     */
    std::vector<std::int64_t> knownDone;
    /** One open hedged request: primary on one node, duplicate on
     *  another; resolved at policy ticks from completion logs. */
    struct HedgePair
    {
        int primaryNode = 0;
        int dupNode = -1; ///< -1: duplicate displaced and dropped
        bool dupDone = false;
        double dupLatency = 0.0;
        /** Primary exhausted its retries; verdict deferred to dup. */
        bool primaryLost = false;
    };
    std::map<int, HedgePair> hedges; ///< by request id
    std::unique_ptr<sim::Rng> faultRng; ///< flaky draws only
    bool brownoutActive = false;
    std::int64_t crashes = 0;
    std::int64_t lost = 0;
    std::int64_t retried = 0; ///< also the retry budget spent
    /** Hedge wins: completions the hub credits, never an engine. */
    std::int64_t hedgeWon = 0;

    // ---- hub counters bumped per request: handles into the
    // ---- simulator's stats(), which is their only home
    double &hedged;
    double &brownoutShed;
    double &flakyFailures;
    double &networkDisplaced;
    double &dispatchFallbacks;

    /** After the handles: it counts into dispatchFallbacks. */
    Dispatcher dispatcher;

    // ---- interconnect (null when cfg.fabric.enabled == false)
    std::unique_ptr<ClusterFabric> fabric;
    std::int64_t migrationsInFlight = 0; ///< payload sent, flip pending
    /**
     * Requests on the wire, parked by slot: a delivery callback
     * captures {simulator, node, slot} instead of a whole
     * EngineRequest, which keeps it inside std::function's in-object
     * buffer. Freed slots are reused, so steady-state hand-offs
     * allocate nothing.
     */
    std::vector<EngineRequest> onWire;
    std::vector<std::uint32_t> freeWire;

    std::uint32_t
    parkOnWire(EngineRequest request)
    {
        if (freeWire.empty()) {
            onWire.push_back(std::move(request));
            return static_cast<std::uint32_t>(onWire.size() - 1);
        }
        std::uint32_t slot = freeWire.back();
        freeWire.pop_back();
        onWire[slot] = std::move(request);
        return slot;
    }

    EngineRequest
    takeFromWire(std::uint32_t slot)
    {
        freeWire.push_back(slot);
        return std::move(onWire[slot]);
    }
};

RunTotals
ClusterSimulator::RunState::readTotals() const
{
    RunTotals t;
    t.at = eq.now();
    t.arrivals = workload->emitted();
    t.nodes.resize(engines.size());
    for (std::size_t n = 0; n < engines.size(); ++n) {
        const ServingEngine &e = *engines[n];
        RunTotals::Node &node = t.nodes[n];
        node.dispatched = dispatchedTo[n];
        node.completed = e.completedCount();
        node.misses = e.missCount();
        node.shed = e.shedCount();
        t.completions += node.completed;
        t.shed += node.shed;
        t.misses += node.misses;
    }
    t.completions += hedgeWon;
    t.shed += static_cast<std::int64_t>(brownoutShed);
    t.lost = lost;
    t.retried = retried;
    t.hedged = static_cast<std::int64_t>(hedged);
    t.hedgeWon = hedgeWon;
    t.expertHits = dispatcher.picks();
    if (fabric) {
        const sim::Network &net = fabric->network();
        t.linkBusy.resize(static_cast<std::size_t>(net.linkCount()));
        for (int l = 0; l < net.linkCount(); ++l)
            t.linkBusy[static_cast<std::size_t>(l)] = net.linkBusyTicks(l);
    }
    return t;
}

void
validateClusterConfig(const ClusterConfig &cfg)
{
    // The node count first: a CLI default scales with it.
    if (cfg.nodes <= 0)
        sim::fatal("ClusterConfig: nodes (--nodes) must be at least 1, "
                   "got " + std::to_string(cfg.nodes));
    validateServingConfig(cfg.node);

    if (cfg.hotExperts < 0)
        sim::fatal("ClusterConfig: hotExperts (--hot-experts) must be "
                   "non-negative");
    if (cfg.hotExperts > cfg.node.numExperts)
        sim::fatal("ClusterConfig: hotExperts (--hot-experts) exceeds the "
                   "expert count");
    // Written so NaN fails too: every comparison with NaN is false.
    if (!(cfg.diurnalAmplitude >= 0.0 && cfg.diurnalAmplitude < 1.0))
        sim::fatal("ClusterConfig: diurnalAmplitude (--diurnal-amplitude) "
                   "must be in [0, 1), got " +
                   std::to_string(cfg.diurnalAmplitude));
    if (cfg.diurnalAmplitude > 0.0) {
        if (cfg.node.arrival != ArrivalProcess::Poisson)
            sim::fatal("ClusterConfig: diurnal ramp modulates the "
                       "open-loop Poisson rate; it cannot be combined "
                       "with a closed loop");
        if (!(std::isfinite(cfg.diurnalPeriodSeconds) &&
              cfg.diurnalPeriodSeconds > 0.0))
            sim::fatal("ClusterConfig: diurnalPeriodSeconds "
                       "(--diurnal-period) must be finite and positive, "
                       "got " +
                       std::to_string(cfg.diurnalPeriodSeconds));
    }
    std::int64_t hbm = platformHbmBytes(cfg.node);
    for (const ClusterNodeOverride &o : cfg.overrides) {
        if (o.node < 0 || o.node >= cfg.nodes)
            sim::fatal("ClusterConfig: override for out-of-range node " +
                       std::to_string(o.node));
        if (o.dmaEngines < 0)
            sim::fatal("ClusterConfig: override dmaEngines "
                       "(--node-dma-engines) must be non-negative");
        if (o.expertRegionBytes < 0)
            sim::fatal("ClusterConfig: override expertRegionBytes "
                       "(--node-region-gb) must be non-negative");
        if (o.expertRegionBytes > hbm)
            sim::fatal("ClusterConfig: override expertRegionBytes "
                       "(--node-region-gb) of node " +
                       std::to_string(o.node) + " must fit the node's " +
                       std::to_string(hbm) + " bytes of HBM, got " +
                       std::to_string(o.expertRegionBytes));
    }

    for (const ScheduledAction &a : cfg.actions) {
        sim::requireTickSeconds(a.atSeconds,
                                "ScheduledAction: atSeconds (--schedule)");
        switch (a.kind) {
          case ActionKind::Drain:
            if (cfg.nodes < 2)
                sim::fatal("ScheduledAction: draining needs at least 2 "
                           "nodes (requests must have somewhere to go)");
            [[fallthrough]];
          case ActionKind::Rejoin:
            if (a.node < 0 || a.node >= cfg.nodes)
                sim::fatal("ScheduledAction: node out of range");
            break;
          case ActionKind::RateOverride:
            if (!(std::isfinite(a.rateFactor) && a.rateFactor > 0.0))
                sim::fatal("ScheduledAction: rateFactor (--schedule) "
                           "must be finite and positive, got " +
                           std::to_string(a.rateFactor));
            if (cfg.node.arrival == ArrivalProcess::ClosedLoop)
                sim::fatal("ScheduledAction: rate overrides modulate "
                           "open-loop arrivals; they cannot be combined "
                           "with a closed loop");
            if (cfg.node.workload.replay())
                sim::fatal("ScheduledAction: rate overrides cannot "
                           "modulate a replayed trace (its timing is "
                           "recorded)");
            break;
        }
    }

    validateControllerConfig(cfg.controller, cfg.nodes);

    validateFabricConfig(cfg.fabric);
    if (cfg.dispatch == DispatchPolicy::TopologyAware &&
        !cfg.fabric.enabled)
        sim::fatal("ClusterConfig: topology-aware dispatch reads path "
                   "congestion off the interconnect; enable the fabric "
                   "(--topology)");

    validateFaultPolicy(cfg.faultPolicy);
    if (cfg.faults && !cfg.faults->empty()) {
        validateFaultSchedule(*cfg.faults, cfg.nodes);
        bool displacing = false;
        for (const FaultEvent &e : *cfg.faults) {
            if (e.kind == FaultKind::NodeCrash && cfg.nodes < 2)
                sim::fatal("ClusterConfig: crash faults need at least "
                           "2 nodes (displaced requests must have "
                           "somewhere to go)");
            if (e.kind == FaultKind::LinkDegrade &&
                !cfg.fabric.enabled)
                sim::fatal("ClusterConfig: link-degrade faults act on "
                           "the interconnect; enable the fabric "
                           "(--topology)");
            displacing = displacing ||
                e.kind == FaultKind::NodeCrash ||
                e.kind == FaultKind::FlakyNode;
        }
        if (displacing) {
            // A displaced-then-lost request never completes, which
            // would wedge a client pool and starve session follow-ups
            // of their trigger — the workload could not emit its full
            // budget.
            if (cfg.node.arrival == ArrivalProcess::ClosedLoop)
                sim::fatal("ClusterConfig: crash/flaky faults cannot "
                           "drive closed-loop arrivals (a lost request "
                           "would never free its client); use open-loop "
                           "arrivals");
            bool sessions = cfg.node.workload.sessionFollowProb > 0.0;
            for (const TenantSpec &t : cfg.node.workload.tenantSpecs)
                sessions = sessions || t.sessionFollowProb > 0.0;
            if (sessions && !cfg.node.workload.replay())
                sim::fatal("ClusterConfig: crash/flaky faults cannot "
                           "generate conversational sessions (a lost "
                           "turn would never trigger its follow-up); "
                           "replay a recorded trace instead");
        }
    }

}

ClusterSimulator::ClusterSimulator(ClusterConfig cfg) : cfg_(std::move(cfg))
{
    validateClusterConfig(cfg_);
    costs_ = computePhaseCosts(cfg_.node);
}

ClusterSimulator::~ClusterSimulator() = default;

bool
ClusterSimulator::begin()
{
    const ServingConfig &base = cfg_.node;
    const int N = cfg_.nodes;

    controller_.reset();
    rs_.reset();
    latency_.clear();
    stalls_.clear();
    stats_ = sim::StatSet("cluster");
    auto rs = std::make_unique<RunState>(
        cfg_,
        makePlacement(cfg_.placement, base.numExperts, N,
                      cfg_.hotExperts),
        stats_);

    // Per-node configs and costs with heterogeneous overrides applied.
    rs->nodeCfg.assign(static_cast<std::size_t>(N), base);
    rs->nodeCosts.assign(static_cast<std::size_t>(N), costs_);
    for (const ClusterNodeOverride &o : cfg_.overrides) {
        auto n = static_cast<std::size_t>(o.node);
        if (o.dmaEngines > 0)
            rs->nodeCfg[n].dmaEngines = o.dmaEngines;
        if (o.expertRegionBytes > 0)
            rs->nodeCosts[n].expertRegionBytes = o.expertRegionBytes;
    }

    // Placement feasibility: every node's placed experts must fit its
    // DDR backing tier (the single-node OOM check, per shard). With
    // the PEFT zoo enabled each node's DDR also carries one copy of
    // the shared base weights the adapters are deltas on. Node
    // overrides touch nothing buildServingZoo reads, so every engine
    // below gets a copy of this one zoo.
    ExpertZoo zoo = buildServingZoo(base);
    rs->expertBytes.resize(static_cast<std::size_t>(base.numExperts));
    for (int e = 0; e < base.numExperts; ++e)
        rs->expertBytes[static_cast<std::size_t>(e)] = zoo.expert(e).bytes;
    rs->placedBytesNow.assign(
        static_cast<std::size_t>(N),
        base.zoo.enabled ? base.expertBase.weightBytes() : 0.0);
    for (int n = 0; n < N; ++n) {
        for (int e :
             rs->placement.expertsOfNode[static_cast<std::size_t>(n)])
            rs->placedBytesNow[static_cast<std::size_t>(n)] +=
                rs->expertBytes[static_cast<std::size_t>(e)];
        if (rs->placedBytesNow[static_cast<std::size_t>(n)] >
            rs->nodeCosts[static_cast<std::size_t>(n)].capacityBytes)
            return false;
    }

    // Arrivals and routing live in a pluggable WorkloadModel; the
    // cluster's diurnal ramp is layered onto the model as a RateShape
    // (amplitude 0 keeps the gap arithmetic bit-identical to the
    // single-node Poisson chain).
    RateShape diurnal;
    diurnal.diurnalAmplitude = cfg_.diurnalAmplitude;
    diurnal.diurnalPeriodSeconds = cfg_.diurnalPeriodSeconds;
    rs->workload = makeWorkloadModel(base, diurnal);

    rs->engines.reserve(static_cast<std::size_t>(N));
    for (int n = 0; n < N; ++n) {
        auto ns = static_cast<std::size_t>(n);
        rs->engines.push_back(std::make_unique<ServingEngine>(
            rs->eq, rs->nodeCfg[ns], rs->nodeCosts[ns], zoo));
        rs->engines.back()->setMirrors(&latency_, &stalls_);
    }

    // Dispatch, drain re-placement, and migration payloads serialize
    // over the interconnect's links on the shared queue.
    if (cfg_.fabric.enabled)
        rs->fabric =
            std::make_unique<ClusterFabric>(rs->eq, cfg_.fabric, N);

    // Closed-loop clients are cluster-wide: whichever node finishes a
    // batch frees that many clients to think and re-issue. Session
    // follow-ups and shed notifications route back the same way.
    for (int n = 0; n < N; ++n) {
        ServingEngine &e = *rs->engines[static_cast<std::size_t>(n)];
        WorkloadModel *workload = rs->workload.get();
        e.setOnBatchComplete([workload](int finished) {
            workload->onBatchComplete(finished);
        });
        e.setOnRequestComplete([workload](const EngineRequest &r) {
            workload->onRequestComplete(toTrafficRequest(r));
        });
        e.setOnRequestShed([workload](const EngineRequest &r) {
            workload->onRequestShed(toTrafficRequest(r));
        });
    }

    // ---- chaos layer (inert without a schedule or policy knob) ----
    rs->serviceFactor.assign(static_cast<std::size_t>(N), 1.0);
    rs->dmaFactor.assign(static_cast<std::size_t>(N), 1.0);
    rs->flakyProb.assign(static_cast<std::size_t>(N), 0.0);
    rs->knownDone.assign(static_cast<std::size_t>(N), 0);
    const bool chaos = (cfg_.faults && !cfg_.faults->empty()) ||
        cfg_.faultPolicy.anyEnabled();
    if (chaos)
        // Dedicated stream for flaky-dispatch draws: drawn only while
        // a flaky window is open, so arming faults never perturbs the
        // workload or routing RNG streams.
        rs->faultRng = std::make_unique<sim::Rng>(
            sim::mix64(base.seed ^ 0xfa017c5ull));
    if (cfg_.faultPolicy.hedge)
        // Hedge resolution drains per-engine completion logs at policy
        // ticks; off by default so the no-chaos path records nothing.
        for (std::unique_ptr<ServingEngine> &e : rs->engines)
            e->setLogCompletions(true);

    // The first snapshot window starts here, from an all-zero read.
    rs->lastRead = rs->readTotals();

    // rs_ must be live before the scheduled lambdas (and the workload
    // sink below) can reference the actuators.
    rs_ = std::move(rs);

    // ---- scripted actions
    sim::EventQueue &eq = rs_->eq;
    for (const ScheduledAction &a : cfg_.actions) {
        sim::Tick at = sim::fromSeconds(a.atSeconds);
        switch (a.kind) {
          case ActionKind::Drain:
            eq.schedule(
                at, [this, a]() { drainNode(a.node); }, "cluster.drain");
            break;
          case ActionKind::Rejoin:
            eq.schedule(
                at, [this, a]() { rejoinNode(a.node); },
                "cluster.rejoin");
            break;
          case ActionKind::RateOverride:
            eq.schedule(
                at, [this, a]() { setRateFactor(a.rateFactor); },
                "cluster.rate_override");
            break;
        }
    }

    // ---- faults --------------------------------------------------
    // Every fault is an event on the same queue as the scripted
    // actions.
    faults_.reset();
    if (cfg_.faults && !cfg_.faults->empty()) {
        faults_ = std::make_unique<FaultInjector>(*this, cfg_.faults);
        faults_->arm();
    }
    armPolicyTick();

    // ---- arrivals -----------------------------------------------
    // The workload model emits routed requests from inside arrival
    // events; the cluster dispatches each to a hosting node. Dispatch
    // itself lives in dispatchRequest(), where the degraded-mode
    // policies hook in, and every hand-off in handOff().
    rs_->workload->bind(rs_->eq, [this](const TrafficRequest &r) {
        if (rs_->firstArrival < 0)
            rs_->firstArrival = rs_->eq.now();
        rs_->recorder.record(r, rs_->eq.now());
        dispatchRequest(r);
    });
    rs_->workload->start();
    return true;
}

/**
 * Route one arriving request to a hosting node, applying the
 * degraded-mode policies on the way: brown-out shedding at the door,
 * flaky-dispatch failures into the retry path (both in route()), and
 * hedged dispatch of a duplicate when the chosen node's backlog
 * estimate blows the SLO. Runs inside the arrival event; with every
 * policy disabled it reduces exactly to the plain dispatch.
 */
void
ClusterSimulator::dispatchRequest(const TrafficRequest &request)
{
    RunState &rs = *rs_;
    const FaultPolicyConfig &policy = cfg_.faultPolicy;

    // Brown-out: while the cluster is in overload, low-priority
    // arrivals are shed at the door (counted, and the workload layer
    // is told, exactly like an SLO admission shed).
    if (rs.brownoutActive &&
        request.priority <= policy.brownoutPriorityMax) {
        rs.brownoutShed += 1.0;
        rs.workload->onRequestShed(request);
        return;
    }

    // Node overrides touch only the DMA engines and the region size,
    // so every engine prices a request alike: one EngineRequest,
    // stamped with the arrival tick, serves whichever node takes it.
    // Measured latency then includes any fabric transit and retries.
    EngineRequest engineRequest =
        rs.engines.front()->makeEngineRequest(request, rs.eq.now());
    int n = route(engineRequest);
    if (n < 0)
        return;

    // Hedged dispatch: when the chosen node's queueing-delay estimate
    // exceeds the priority-scaled SLO, race a duplicate on the best
    // other live node; the loser is cancelled at a policy tick.
    if (policy.hedge && request.deadlineSeconds > 0.0 &&
        estimateDelaySeconds(n) >
            policy.hedgeThreshold *
                (1.0 + static_cast<double>(request.priority)) *
                request.deadlineSeconds) {
        int alt = -1;
        double altEst = 0.0;
        auto consider = [&](int c) {
            if (c == n || !rs.dispatcher.live(c))
                return;
            double est = estimateDelaySeconds(c);
            if (alt < 0 || est < altEst) { // ties keep the lowest id
                alt = c;
                altEst = est;
            }
        };
        // Prefer the expert's other hosts; any live node can still
        // serve it by demand-streaming from its DDR zoo copy.
        for (int c : rs.placement.hostsOfExpert[static_cast<std::size_t>(
                 request.expert)])
            consider(c);
        if (alt < 0)
            for (int c = 0; c < cfg_.nodes; ++c)
                consider(c);
        if (alt >= 0) {
            engineRequest.hedgeDuplicate = true;
            handOff(hub(), alt, std::move(engineRequest));
            rs.hedges.emplace(request.id,
                              RunState::HedgePair{n, alt});
            rs.hedged += 1.0;
        }
    }
}

/**
 * Send @p request from the hub to the node the dispatcher picks: first
 * dispatch and every retry. A flaky target fails the dispatch instead,
 * and the request enters the same retry-or-lost path a crash
 * displacement does, with its arrival timestamp preserved. The coin
 * comes from the dedicated fault stream, drawn only while the target's
 * flaky window is open. @return the node, or -1 when the dispatch
 * failed.
 */
int
ClusterSimulator::route(EngineRequest request)
{
    RunState &rs = *rs_;
    int n = rs.dispatcher.pick(request.expert);
    double flaky = rs.flakyProb[static_cast<std::size_t>(n)];
    if (flaky > 0.0 && rs.faultRng->uniformDouble() < flaky) {
        rs.flakyFailures += 1.0;
        handleDisplaced(std::move(request));
        return -1;
    }
    handOff(hub(), n, std::move(request));
    return n;
}

/**
 * The one place a request moves to @p node: from the hub (dispatch,
 * retry, hedge duplicate) or from a draining node (re-placement).
 * Without the fabric the engine takes it at once. With it, the request
 * parks on the wire while a message of the modeled hand-off size
 * (prompt payload plus per-message overhead, NOT the request's
 * trafficBytes, which counts node-local HBM streaming) crosses from
 * @p from, and deliverViaFabric() hands it over when the last flit
 * lands.
 */
void
ClusterSimulator::handOff(int from, int node, EngineRequest request)
{
    RunState &rs = *rs_;
    ++rs.dispatchedTo[static_cast<std::size_t>(node)];
    if (!rs.fabric) {
        rs.engines[static_cast<std::size_t>(node)]->injectAt(
            std::move(request));
        return;
    }
    std::uint32_t slot = rs.parkOnWire(std::move(request));
    rs.fabric->sendTransfer(from, node, rs.fabric->requestBytes(),
                            [this, node, slot]() {
                                deliverViaFabric(
                                    node, rs_->takeFromWire(slot));
                            });
}

/**
 * A request's last flit landed at @p node, inside a network event: the
 * engine takes it directly. A node that went down while the message
 * was in flight displaces the request into the retry-or-lost path —
 * conservation holds, nothing vanishes on the wire.
 */
void
ClusterSimulator::deliverViaFabric(int node, EngineRequest request)
{
    RunState &rs = *rs_;
    if (!rs.dispatcher.live(node)) {
        rs.networkDisplaced += 1.0;
        handleDisplaced(std::move(request));
        return;
    }
    rs.engines[static_cast<std::size_t>(node)]->injectAt(
        std::move(request));
}

ClusterSimulator::RunState &
ClusterSimulator::activeRun(const char *who) const
{
    if (!rs_)
        sim::panic(std::string("cluster: ") + who +
                   " outside an active run");
    return *rs_;
}

void
ClusterSimulator::requireInRange(int value, int size, const char *what)
{
    if (value < 0 || value >= size)
        sim::fatal(std::string("cluster: ") + what + " out of range");
}

void
ClusterSimulator::accrueNodeSeconds()
{
    RunState &rs = *rs_;
    sim::Tick now = rs.eq.now();
    if (now > rs.liveMark)
        rs.nodeSecondsLive += sim::toSeconds(now - rs.liveMark) *
            static_cast<double>(rs.dispatcher.liveCount());
    rs.liveMark = now;
}

/**
 * Take live @p node out of dispatch (drain or crash) and close its
 * live-time account. @return false, changing nothing, when it is
 * already down or is the last live node (requests must have somewhere
 * to go).
 */
bool
ClusterSimulator::takeNodeDown(int node)
{
    RunState &rs = *rs_;
    if (!rs.dispatcher.live(node) || rs.dispatcher.liveCount() <= 1)
        return false;
    accrueNodeSeconds();
    rs.dispatcher.setLive(node, false);
    rs.wasDrained[static_cast<std::size_t>(node)] = 1;
    return true;
}

bool
ClusterSimulator::drainNode(int node)
{
    RunState &rs = activeRun("drainNode");
    requireInRange(node, cfg_.nodes, "drainNode");
    if (!takeNodeDown(node))
        return false;
    stats_.inc("drain_events");
    // The executing batch finishes on the draining node; everything
    // still queued re-dispatches node -> node with its full request
    // state (arrival timestamp, tenant, SLO), so tail latency tells
    // the truth about the disruption.
    auto d = static_cast<std::size_t>(node);
    std::vector<EngineRequest> moved = rs.engines[d]->extractQueued();
    rs.redispatchedFrom[d] += static_cast<std::int64_t>(moved.size());
    for (EngineRequest &r : moved) {
        int n = rs.dispatcher.pick(r.expert);
        handOff(node, n, std::move(r));
    }
    return true;
}

bool
ClusterSimulator::rejoinNode(int node)
{
    RunState &rs = activeRun("rejoinNode");
    requireInRange(node, cfg_.nodes, "rejoinNode");
    if (rs.dispatcher.live(node))
        return false; // idempotent: already live
    accrueNodeSeconds();
    // Cold rejoin: the resident set is flushed and re-warms from live
    // traffic.
    rs.engines[static_cast<std::size_t>(node)]->flushResident();
    rs.dispatcher.setLive(node, true);
    stats_.inc("rejoin_events");
    return true;
}

bool
ClusterSimulator::crashNode(int node)
{
    RunState &rs = activeRun("crashNode");
    requireInRange(node, cfg_.nodes, "crashNode");
    if (!takeNodeDown(node))
        return false;
    ++rs.crashes;
    // Unlike a clean drain, the in-flight batch dies with the node:
    // crashExtract() hands back queued AND executing requests (the
    // abandoned batch resolves as a ghost that completes nothing) and
    // every one of them goes through the retry-or-lost policy.
    std::vector<EngineRequest> displaced =
        rs.engines[static_cast<std::size_t>(node)]->crashExtract();
    for (EngineRequest &r : displaced)
        handleDisplaced(std::move(r));
    return true;
}

void
ClusterSimulator::setNodeDmaFactor(int node, double factor)
{
    RunState &rs = activeRun("setNodeDmaFactor");
    requireInRange(node, cfg_.nodes, "setNodeDmaFactor");
    if (factor < 1.0)
        sim::fatal("cluster: DMA stall factor must be at least 1");
    auto d = static_cast<std::size_t>(node);
    rs.engines[d]->memorySystem().setDmaRateFactor(factor);
    rs.dmaFactor[d] = factor;
    stats_.inc(factor == 1.0 ? "dma_heals" : "dma_stalls");
}

void
ClusterSimulator::setNodeServiceFactor(int node, double factor)
{
    RunState &rs = activeRun("setNodeServiceFactor");
    requireInRange(node, cfg_.nodes, "setNodeServiceFactor");
    auto d = static_cast<std::size_t>(node);
    rs.engines[d]->setServiceFactor(factor);
    rs.serviceFactor[d] = factor;
    stats_.inc(factor == 1.0 ? "straggler_heals" : "stragglers");
}

void
ClusterSimulator::setNodeFlakyProbability(int node, double p)
{
    RunState &rs = activeRun("setNodeFlakyProbability");
    requireInRange(node, cfg_.nodes, "setNodeFlakyProbability");
    if (p < 0.0 || p > 1.0)
        sim::fatal("cluster: flaky probability must be in [0, 1]");
    rs.flakyProb[static_cast<std::size_t>(node)] = p;
    stats_.inc(p == 0.0 ? "flaky_heals" : "flaky_windows");
}

void
ClusterSimulator::setNodeLinkFactor(int node, double factor)
{
    RunState &rs = activeRun("setNodeLinkFactor");
    requireInRange(node, cfg_.nodes, "setNodeLinkFactor");
    if (!rs.fabric)
        sim::fatal("cluster: setNodeLinkFactor without the fabric");
    rs.fabric->degradeNode(node, factor);
    stats_.inc(factor == 1.0 ? "link_heals" : "link_degrades");
}

/**
 * One displaced request (crash extraction or flaky dispatch failure)
 * meets the retry policy: duplicates are dropped (their primary is
 * still being served), primaries re-dispatch after exponential
 * backoff while attempts and the cluster-wide budget allow, and
 * everything else is counted lost — unless its hedge duplicate
 * already finished, in which case the request was in fact served and
 * the completion is credited.
 */
void
ClusterSimulator::handleDisplaced(EngineRequest request)
{
    RunState &rs = *rs_;
    if (request.hedgeDuplicate) {
        auto it = rs.hedges.find(request.id);
        if (it != rs.hedges.end()) {
            it->second.dupNode = -1; // duplicate gone
            if (it->second.primaryLost) {
                // Both copies are now dead: the loss is final.
                ++rs.lost;
                rs.hedges.erase(it);
            }
        }
        stats_.inc("hedge_duplicates_dropped");
        return;
    }
    const FaultPolicyConfig &policy = cfg_.faultPolicy;
    bool budgetOk =
        policy.retryBudget < 0 || rs.retried < policy.retryBudget;
    if (policy.retriesEnabled() && request.attempt < policy.retryMax &&
        budgetOk) {
        ++request.attempt;
        ++rs.retried;
        // Exponential backoff: base * 2^(attempt-1). ldexp keeps the
        // doubling exact.
        double backoff = std::ldexp(policy.retryBackoffSeconds,
                                    request.attempt - 1);
        // The retry lands back at the hub and is routed afresh, with
        // its original arrival timestamp intact.
        rs.eq.scheduleIn(
            sim::fromSeconds(backoff),
            [this, request]() { route(request); },
            "cluster.retry");
        return;
    }
    auto it = rs.hedges.find(request.id);
    if (it != rs.hedges.end()) {
        RunState::HedgePair &h = it->second;
        if (h.dupDone) {
            // The duplicate already served it: a hedge win, not a loss.
            creditHedgeWin(h.dupLatency);
            rs.hedges.erase(it);
            return;
        }
        if (h.dupNode >= 0) {
            // The duplicate is still in flight; defer the verdict.
            h.primaryLost = true;
            return;
        }
        rs.hedges.erase(it);
    }
    ++rs.lost;
    return;
}

/**
 * Hub-side queueing-delay estimate for hedging: backlog (dispatched
 * minus the last policy-tick view of completed + shed) priced at
 * router + a full batch of default prompts, stretched by the node's
 * known degradation. The policy models a router that refreshes its
 * view of the nodes only at policy ticks, not one that reads live
 * engine queues.
 */
double
ClusterSimulator::estimateDelaySeconds(int node) const
{
    const RunState &rs = *rs_;
    auto ns = static_cast<std::size_t>(node);
    std::int64_t backlog =
        rs.dispatchedTo[ns] - rs.knownDone[ns];
    if (backlog <= 0)
        return 0.0;
    const ServingConfig &ncfg = rs.nodeCfg[ns];
    int batch = std::max(1, ncfg.batch);
    double batches = static_cast<double>(backlog) /
        static_cast<double>(batch);
    return batches *
        rs.nodeCosts[ns].batchSeconds(batch, ncfg.outputTokens) *
        rs.serviceFactor[ns] * rs.dmaFactor[ns];
}

/** Re-arm the recurring policy tick (hedge / brown-out only). */
void
ClusterSimulator::armPolicyTick()
{
    const FaultPolicyConfig &policy = cfg_.faultPolicy;
    if (!policy.hedge && policy.brownoutDepth <= 0.0)
        return;
    rs_->eq.scheduleIn(sim::fromSeconds(policy.policyTickSeconds),
                       [this]() { policyTick(); },
                       "cluster.policy_tick");
}

/**
 * The recurring policy tick: refresh the hub's backlog view,
 * resolve hedge winners from the engines' completion logs, and
 * re-evaluate brown-out with hysteresis. Stops re-arming once the
 * run is idle so the event queue can dry.
 */
void
ClusterSimulator::policyTick()
{
    RunState &rs = *rs_;
    const FaultPolicyConfig &policy = cfg_.faultPolicy;
    for (int n = 0; n < cfg_.nodes; ++n) {
        auto ns = static_cast<std::size_t>(n);
        rs.knownDone[ns] = rs.engines[ns]->completedCount() +
            rs.engines[ns]->shedCount();
    }
    resolveHedges();
    if (policy.brownoutDepth > 0.0) {
        std::int64_t depth = 0;
        int live = 0;
        for (int n = 0; n < cfg_.nodes; ++n) {
            auto ns = static_cast<std::size_t>(n);
            if (!rs.dispatcher.live(n))
                continue;
            depth += static_cast<std::int64_t>(
                rs.engines[ns]->queueDepth());
            ++live;
        }
        double mean = live > 0
            ? static_cast<double>(depth) / static_cast<double>(live)
            : 0.0;
        // Hysteresis: enter above the threshold, exit below half of
        // it, so the shed decision doesn't flap every tick.
        if (rs.brownoutActive) {
            if (mean <= 0.5 * policy.brownoutDepth) {
                rs.brownoutActive = false;
                stats_.inc("brownout_exits");
            }
        } else if (mean > policy.brownoutDepth) {
            rs.brownoutActive = true;
            stats_.inc("brownout_entries");
        }
    }
    if (!idle())
        armPolicyTick();
}

/**
 * Drain the engines' completion logs (in node order) into the open
 * hedge ledger, then settle every pair
 * whose duplicate finished first: cancel the still-queued primary and
 * credit the completion hub-side. Exactly one completion is ever
 * counted per hedged request: the engines count primaries only, the
 * hub credits a duplicate's completion only after the primary is
 * confirmed cancelled (or lost).
 */
void
ClusterSimulator::resolveHedges()
{
    RunState &rs = *rs_;
    if (!cfg_.faultPolicy.hedge)
        return;
    for (int n = 0; n < cfg_.nodes; ++n) {
        std::vector<ServingEngine::CompletionRecord> &log =
            rs.engines[static_cast<std::size_t>(n)]->completionLog();
        for (const ServingEngine::CompletionRecord &c : log) {
            auto it = rs.hedges.find(c.id);
            if (it == rs.hedges.end())
                continue;
            RunState::HedgePair &h = it->second;
            if (c.hedgeDuplicate) {
                h.dupDone = true;
                h.dupLatency = c.latencySeconds;
            } else {
                // The primary completed (and the engine counted it):
                // cancel the duplicate if it still queues, close the
                // pair. A duplicate already executing just finishes as
                // an uncounted ghost.
                if (h.dupNode >= 0)
                    rs.engines[static_cast<std::size_t>(h.dupNode)]
                        ->cancelQueued(c.id);
                rs.hedges.erase(it);
            }
        }
        log.clear();
    }
    for (auto it = rs.hedges.begin(); it != rs.hedges.end();) {
        RunState::HedgePair &h = it->second;
        bool win = h.dupDone &&
            (h.primaryLost ||
             rs.engines[static_cast<std::size_t>(h.primaryNode)]
                 ->cancelQueued(it->first));
        if (win) {
            creditHedgeWin(h.dupLatency);
            it = rs.hedges.erase(it);
        } else {
            ++it;
        }
    }
}

/** A hedge win: the hub credits the duplicate's completion. */
void
ClusterSimulator::creditHedgeWin(double dup_latency)
{
    ++rs_->hedgeWon;
    latency_.record(dup_latency);
}

bool
ClusterSimulator::migrateExpert(int expert, int from, int to)
{
    RunState &rs = activeRun("migrateExpert");
    requireInRange(expert, cfg_.node.numExperts, "migrateExpert expert");
    requireInRange(from, cfg_.nodes, "migrateExpert node");
    requireInRange(to, cfg_.nodes, "migrateExpert node");
    if (from == to)
        return false;
    auto e = static_cast<std::size_t>(expert);
    std::vector<int> &hosts = rs.placement.hostsOfExpert[e];
    if (std::find(hosts.begin(), hosts.end(), from) == hosts.end())
        return false; // not hosted where we'd take it from
    if (std::find(hosts.begin(), hosts.end(), to) != hosts.end())
        return false; // already hosted at the target
    double bytes = rs.expertBytes[e];
    auto t = static_cast<std::size_t>(to);
    if (rs.placedBytesNow[t] + bytes >
        rs.nodeCosts[t].capacityBytes)
        return false; // target DDR cannot take the expert

    // The target's bytes are reserved up front so concurrent fabric
    // migrations cannot oversubscribe it.
    rs.placedBytesNow[t] += bytes;
    if (!rs.fabric) {
        commitMigration(expert, from, to, bytes);
        return true;
    }
    // The payload crosses the fabric, then pays the target's DDR-write
    // time (the DmaEngine idle estimate, stretched by any open
    // dma-stall fault) before the placement flips.
    ++rs.migrationsInFlight;
    rs.fabric->sendTransfer(
        from, to, bytes, [this, expert, from, to, bytes]() {
            RunState &rsc = *rs_;
            auto tc = static_cast<std::size_t>(to);
            sim::Tick ddr = static_cast<sim::Tick>(
                static_cast<double>(
                    rsc.engines[tc]->memorySystem().estimateLoad(bytes)) *
                rsc.dmaFactor[tc]);
            rsc.eq.scheduleIn(
                ddr,
                [this, expert, from, to, bytes]() {
                    --rs_->migrationsInFlight;
                    commitMigration(expert, from, to, bytes);
                },
                "cluster.migrate_commit");
        });
    return true;
}

/**
 * Flip @p expert from @p from to @p to, whose @p bytes are already
 * reserved on the target. A placement that moved while the payload
 * was on the fabric (a replication change raced it) drops the copy
 * and refunds the reservation.
 */
void
ClusterSimulator::commitMigration(int expert, int from, int to,
                                  double bytes)
{
    RunState &rs = *rs_;
    auto f = static_cast<std::size_t>(from);
    auto t = static_cast<std::size_t>(to);
    std::vector<int> &hosts =
        rs.placement.hostsOfExpert[static_cast<std::size_t>(expert)];
    auto hostIt = std::find(hosts.begin(), hosts.end(), from);
    if (hostIt == hosts.end() ||
        std::find(hosts.begin(), hosts.end(), to) != hosts.end()) {
        rs.placedBytesNow[t] -= bytes;
        stats_.inc("migration_aborts");
        return;
    }
    *hostIt = to;
    std::vector<int> &fromExperts = rs.placement.expertsOfNode[f];
    fromExperts.erase(
        std::find(fromExperts.begin(), fromExperts.end(), expert));
    rs.placement.expertsOfNode[t].push_back(expert);
    rs.dispatcher.placementChanged();
    rs.placedBytesNow[f] -= bytes;
    stats_.inc("expert_migrations");
}

bool
ClusterSimulator::setReplication(int expert, int replicas)
{
    RunState &rs = activeRun("setReplication");
    requireInRange(expert, cfg_.node.numExperts, "setReplication expert");
    int want = std::max(1, std::min(replicas, cfg_.nodes));
    auto e = static_cast<std::size_t>(expert);
    std::vector<int> &hosts = rs.placement.hostsOfExpert[e];
    double bytes = rs.expertBytes[e];
    bool changed = false;

    auto hosted = [&hosts](int n) {
        return std::find(hosts.begin(), hosts.end(), n) != hosts.end();
    };

    while (static_cast<int>(hosts.size()) < want) {
        // Grow: prefer live nodes, then the emptiest, then lowest id —
        // a deterministic order so seeded runs replay exactly.
        int pick = -1;
        for (int n = 0; n < cfg_.nodes; ++n) {
            auto ns = static_cast<std::size_t>(n);
            if (hosted(n))
                continue;
            if (rs.placedBytesNow[ns] + bytes >
                rs.nodeCosts[ns].capacityBytes)
                continue;
            if (pick < 0) {
                pick = n;
                continue;
            }
            auto ps = static_cast<std::size_t>(pick);
            if (rs.dispatcher.live(n) != rs.dispatcher.live(pick)) {
                if (rs.dispatcher.live(n))
                    pick = n;
                continue;
            }
            if (rs.placement.expertsOfNode[ns].size() <
                rs.placement.expertsOfNode[ps].size())
                pick = n;
        }
        if (pick < 0)
            break; // nowhere feasible to grow
        auto ps = static_cast<std::size_t>(pick);
        hosts.push_back(pick);
        rs.placement.expertsOfNode[ps].push_back(expert);
        rs.placedBytesNow[ps] += bytes;
        ++rs.placement.replicas;
        changed = true;
    }
    while (static_cast<int>(hosts.size()) > want && hosts.size() > 1) {
        // Shrink: prefer drained nodes, then the fullest, then
        // highest id.
        int pick = hosts.front();
        for (int n : hosts) {
            auto ns = static_cast<std::size_t>(n);
            auto ps = static_cast<std::size_t>(pick);
            if (rs.dispatcher.live(n) != rs.dispatcher.live(pick)) {
                if (!rs.dispatcher.live(n))
                    pick = n;
                continue;
            }
            if (rs.placement.expertsOfNode[ns].size() >
                    rs.placement.expertsOfNode[ps].size() ||
                (rs.placement.expertsOfNode[ns].size() ==
                     rs.placement.expertsOfNode[ps].size() &&
                 n > pick))
                pick = n;
        }
        auto ps = static_cast<std::size_t>(pick);
        hosts.erase(std::find(hosts.begin(), hosts.end(), pick));
        std::vector<int> &ex = rs.placement.expertsOfNode[ps];
        ex.erase(std::find(ex.begin(), ex.end(), expert));
        rs.placedBytesNow[ps] -= bytes;
        --rs.placement.replicas;
        changed = true;
    }
    if (changed) {
        rs.dispatcher.placementChanged();
        stats_.inc("replication_changes");
    }
    return changed;
}

void
ClusterSimulator::setRateFactor(double factor)
{
    RunState &rs = activeRun("setRateFactor");
    if (factor <= 0.0)
        sim::fatal("cluster: rate factor must be positive");
    rs.workload->setRateFactor(factor);
    stats_.inc("rate_overrides");
}

int
ClusterSimulator::liveNodes() const
{
    return activeRun("liveNodes").dispatcher.liveCount();
}

bool
ClusterSimulator::idle() const
{
    const RunState &rs = activeRun("idle");
    if (rs.workload->emitted() != rs.workload->plannedRequests())
        return false;
    if (rs.fabric &&
        (rs.fabric->inFlight() > 0 || rs.migrationsInFlight > 0))
        return false;
    for (const std::unique_ptr<ServingEngine> &e : rs.engines) {
        if (e->queueDepth() != 0 || e->busy())
            return false;
        if (e->memorySystem().queuedLoads() != 0 ||
            e->memorySystem().loadsInFlight() != 0)
            return false;
    }
    return true;
}

sim::EventQueue &
ClusterSimulator::eventQueue()
{
    return activeRun("eventQueue").eq;
}

ServingEngine &
ClusterSimulator::engine(int node)
{
    if (!rs_ || node < 0 || node >= cfg_.nodes)
        sim::panic("cluster: engine outside an active run");
    return *rs_->engines[static_cast<std::size_t>(node)];
}

Dispatcher &
ClusterSimulator::dispatcher()
{
    return activeRun("dispatcher").dispatcher;
}

sim::Network *
ClusterSimulator::network()
{
    RunState &rs = activeRun("network");
    return rs.fabric ? &rs.fabric->network() : nullptr;
}

const ExpertPlacement &
ClusterSimulator::placement() const
{
    return activeRun("placement").placement;
}

MetricsSnapshot
ClusterSimulator::snapshot()
{
    RunState &rs = activeRun("snapshot");
    accrueNodeSeconds();

    // The window is the difference of two reads of the run's
    // counters: this one and the one the last snapshot took.
    RunTotals now = rs.readTotals();
    const RunTotals &last = rs.lastRead;
    MetricsSnapshot s;
    s.atSeconds = sim::toSeconds(now.at);
    s.windowSeconds = sim::toSeconds(now.at - last.at);
    s.nodeSecondsLive = rs.nodeSecondsLive;
    s.arrivals = now.arrivals - last.arrivals;
    s.completions = now.completions - last.completions;
    s.shed = now.shed - last.shed;
    s.lost = now.lost - last.lost;
    s.retried = now.retried - last.retried;
    s.hedged = now.hedged - last.hedged;
    s.hedgeWon = now.hedgeWon - last.hedgeWon;
    if (s.windowSeconds > 0.0) {
        s.arrivalRatePerSec =
            static_cast<double>(s.arrivals) / s.windowSeconds;
        s.completionRatePerSec =
            static_cast<double>(s.completions) / s.windowSeconds;
    }

    std::int64_t liveDepth = 0;
    s.nodes.resize(now.nodes.size());
    for (std::size_t n = 0; n < now.nodes.size(); ++n) {
        const ServingEngine &e = *rs.engines[n];
        NodeSnapshot &node = s.nodes[n];
        node.node = static_cast<int>(n);
        node.live = rs.dispatcher.live(static_cast<int>(n));
        node.wasDrained = rs.wasDrained[n] != 0;
        node.queueDepth = e.queueDepth();
        node.outstanding = e.outstanding();
        node.dispatched = now.nodes[n].dispatched - last.nodes[n].dispatched;
        node.completed = now.nodes[n].completed - last.nodes[n].completed;
        node.misses = now.nodes[n].misses - last.nodes[n].misses;
        node.shed = now.nodes[n].shed - last.nodes[n].shed;
        if (node.live) {
            ++s.liveNodes;
            liveDepth += node.queueDepth;
        }
    }
    if (s.liveNodes > 0)
        s.meanQueueDepthPerLiveNode = static_cast<double>(liveDepth) /
            static_cast<double>(s.liveNodes);

    s.expertHits.resize(now.expertHits.size());
    for (std::size_t e = 0; e < now.expertHits.size(); ++e)
        s.expertHits[e] = now.expertHits[e] - last.expertHits[e];

    if (rs.fabric) {
        const sim::Network &net = rs.fabric->network();
        sim::Tick window = now.at - last.at;
        s.links.resize(now.linkBusy.size());
        for (std::size_t l = 0; l < now.linkBusy.size(); ++l) {
            int link = static_cast<int>(l);
            s.links[l].from = net.nodeLabel(net.linkFrom(link));
            s.links[l].to = net.nodeLabel(net.linkTo(link));
            sim::Tick busy = now.linkBusy[l] - last.linkBusy[l];
            // Busy time books at transmit start, so a flit spanning
            // the window edge can push the ratio past 1; clamp.
            s.links[l].utilization = window > 0
                ? std::min(1.0, static_cast<double>(busy) /
                                    static_cast<double>(window))
                : 0.0;
        }
    }

    rs.lastRead = std::move(now);
    return s;
}

ClusterResult
ClusterSimulator::run()
{
    if (!begin()) {
        ClusterResult result;
        result.oom = true;
        return result;
    }
    if (cfg_.controller.policy != ControllerPolicy::Static) {
        controller_ =
            std::make_unique<ClusterController>(*this, cfg_.controller);
        controller_->start();
    }
    rs_->eq.run();
    return finish();
}

ClusterResult
ClusterSimulator::finish()
{
    if (!rs_)
        sim::panic("cluster: finish without begin");
    RunState &rs = *rs_;
    const ServingConfig &base = cfg_.node;
    const int N = cfg_.nodes;
    ClusterResult result;

    rs.recorder.write();
    accrueNodeSeconds();

    // Settle the hedge ledger's tail: completions that landed after
    // the last policy tick, then any pair whose primary was lost
    // and whose duplicate silently died (shed at admission) — that
    // loss is final and counted, nothing leaves the run unaccounted.
    resolveHedges();
    for (const auto &kv : rs.hedges)
        if (kv.second.primaryLost)
            ++rs.lost;
    rs.hedges.clear();

    std::int64_t batches = 0, specSteps = 0;
    double occupancyTotal = 0.0, depthIntegral = 0.0;
    double routerTotal = 0.0, switchTotal = 0.0, execTotal = 0.0;
    double dmaLoads = 0.0, dmaLoadBytes = 0.0;
    sim::Tick lastCompletion = 0;
    for (int n = 0; n < N; ++n) {
        ServingEngine &e = *rs.engines[static_cast<std::size_t>(n)];
        sim::simAssert(e.queueDepth() == 0 && !e.busy(),
                       "cluster: event stream drained with work pending");
        sim::simAssert(e.memorySystem().queuedLoads() == 0 &&
                           e.memorySystem().loadsInFlight() == 0,
                       "cluster: DMA queue drained with transfers pending");
        batches += e.batchCount();
        specSteps += e.specStepsTotal();
        occupancyTotal += e.occupancyTotal();
        depthIntegral += e.depthIntegral();
        routerTotal += e.routerSecondsTotal();
        switchTotal += e.switchSecondsTotal();
        execTotal += e.execSecondsTotal();
        dmaLoads += e.memorySystem().stats().get("issued_loads");
        dmaLoadBytes += e.memorySystem().stats().get("load_bytes");
        lastCompletion = std::max(lastCompletion, e.lastCompletion());
    }
    // The run's totals are the same read snapshot() diffs: hedge wins
    // are completions the engines never counted, brown-out sheds never
    // reached an engine, and lost requests are the only sanctioned
    // leak, counted, not silent.
    const RunTotals t = rs.readTotals();
    const std::int64_t completed = t.completions;
    sim::simAssert(t.arrivals == rs.workload->plannedRequests(),
                   "cluster: workload did not emit its full budget");
    sim::simAssert(completed + t.shed + t.lost == t.arrivals,
                   "cluster: arrivals != completions + shed + lost "
                   "at drain");

    double makespan = sim::toSeconds(
        lastCompletion - std::max<sim::Tick>(rs.firstArrival, 0));

    StreamMetrics &m = result.stream;
    m.p50LatencySeconds = latency_.quantile(0.50);
    m.p95LatencySeconds = latency_.quantile(0.95);
    m.p99LatencySeconds = latency_.quantile(0.99);
    m.meanLatencySeconds = latency_.mean();
    m.maxLatencySeconds = latency_.max();
    m.completed = completed;
    m.batches = batches;
    m.meanBatchOccupancy = batches > 0
        ? occupancyTotal / static_cast<double>(batches)
        : 0.0;
    m.makespanSeconds = makespan;
    if (makespan > 0.0) {
        m.throughputRequestsPerSec =
            static_cast<double>(completed) / makespan;
        m.throughputTokensPerSec = m.throughputRequestsPerSec *
            static_cast<double>(base.outputTokens);
        m.meanQueueDepth = depthIntegral / makespan;
    }
    m.meanSwitchStallSeconds = stalls_.mean();
    m.p95SwitchStallSeconds = stalls_.quantile(0.95);
    if (base.specDecode.enabled) {
        m.specSteps = specSteps;
        m.specTokensPerStep = specSteps > 0
            ? static_cast<double>(completed) *
                static_cast<double>(base.outputTokens) /
                static_cast<double>(specSteps)
            : 0.0;
    }
    m.eventsExecuted = rs.eq.executedCount();
    m.shed = t.shed;
    m.shedRate = completed + t.shed > 0
        ? static_cast<double>(t.shed) /
            static_cast<double>(completed + t.shed)
        : 0.0;
    m.lost = t.lost;
    m.retried = t.retried;
    m.hedged = t.hedged;
    m.hedgeWon = t.hedgeWon;

    result.missRate = completed > 0
        ? static_cast<double>(t.misses) / static_cast<double>(completed)
        : 0.0;
    double batchCount =
        static_cast<double>(std::max<std::int64_t>(batches, 1));
    result.perBatch.routerSeconds = routerTotal / batchCount;
    result.perBatch.switchSeconds = switchTotal / batchCount;
    result.perBatch.execSeconds = execTotal / batchCount;

    std::int64_t maxCompleted = 0;
    result.nodes.resize(static_cast<std::size_t>(N));
    for (int n = 0; n < N; ++n) {
        auto ns = static_cast<std::size_t>(n);
        ServingEngine &e = *rs.engines[ns];
        ClusterNodeMetrics &nm = result.nodes[ns];
        nm.node = n;
        nm.drained = rs.wasDrained[ns] != 0;
        nm.dispatched = t.nodes[ns].dispatched;
        nm.redispatched = rs.redispatchedFrom[ns];
        nm.completed = t.nodes[ns].completed;
        nm.batches = e.batchCount();
        nm.misses = t.nodes[ns].misses;
        nm.shed = t.nodes[ns].shed;
        nm.missRate = nm.completed > 0
            ? static_cast<double>(nm.misses) /
                static_cast<double>(nm.completed)
            : 0.0;
        nm.p50LatencySeconds = e.latency().quantile(0.50);
        nm.p95LatencySeconds = e.latency().quantile(0.95);
        nm.meanQueueDepth = makespan > 0.0
            ? e.depthIntegral() / makespan
            : 0.0;
        nm.maxQueueDepth = e.queueDepthMax();
        nm.placedExperts = static_cast<int>(
            rs.placement.expertsOfNode[ns].size());
        // Recomputed from the FINAL placement (migrations and
        // replication changes move bytes); untouched placements sum
        // the same doubles in the same order as the begin()-time
        // feasibility pass, so the value is bit-identical.
        nm.placedBytes = 0.0;
        for (int ex : rs.placement.expertsOfNode[ns])
            nm.placedBytes +=
                rs.expertBytes[static_cast<std::size_t>(ex)];
        nm.peakResidentBytes = e.peakResidentBytes();

        m.maxQueueDepth = std::max(m.maxQueueDepth, e.queueDepthMax());
        // The engines' own counters (prefetch_*, shed_tenant_*, ...),
        // summed next to the hub's.
        for (const std::string &name : e.stats().names())
            stats_.inc(name, e.stats().get(name));

        maxCompleted = std::max(maxCompleted, nm.completed);
        result.redispatched += nm.redispatched;
        result.placedBytesTotal += nm.placedBytes;
        result.peakResidentBytesTotal += nm.peakResidentBytes;
    }
    m.prefetchesIssued =
        static_cast<std::int64_t>(stats_.get("prefetches_issued"));
    m.prefetchHits = static_cast<std::int64_t>(stats_.get("prefetch_hits"));
    m.prefetchesCancelled =
        static_cast<std::int64_t>(stats_.get("prefetches_cancelled"));
    double meanCompleted =
        static_cast<double>(completed) / static_cast<double>(N);
    result.loadImbalance = meanCompleted > 0.0
        ? static_cast<double>(maxCompleted) / meanCompleted
        : 1.0;
    result.expertReplicas = rs.placement.replicas;
    result.nodeSecondsLive = rs.nodeSecondsLive;
    result.nodeHours = rs.nodeSecondsLive / 3600.0;
    if (controller_) {
        controller_->finish();
        result.controllerTicks = controller_->ticks();
        result.controllerActions = controller_->actions();
    }
    result.faultsInjected = faults_ ? faults_->injectedCount() : 0;
    result.crashes = rs.crashes;

    if (rs.fabric) {
        sim::simAssert(rs.fabric->inFlight() == 0,
                       "cluster: event stream drained with network "
                       "messages in flight");
        sim::simAssert(rs.migrationsInFlight == 0,
                       "cluster: event stream drained with migrations "
                       "in flight");
        const sim::Network &net = rs.fabric->network();
        result.networkMessages = net.messagesDelivered();
        result.networkFlits = net.flitsDelivered();
        result.networkCreditStalls = net.creditStalls();
        result.networkLinkWalks = net.linkWalks();
        sim::Tick span =
            lastCompletion - std::max<sim::Tick>(rs.firstArrival, 0);
        if (span > 0 && !t.linkBusy.empty()) {
            double maxU = 0.0, sumU = 0.0;
            for (sim::Tick busy : t.linkBusy) {
                double u = static_cast<double>(busy) /
                    static_cast<double>(span);
                maxU = std::max(maxU, u);
                sumU += u;
            }
            result.networkMaxLinkUtilization = maxU;
            result.networkMeanLinkUtilization =
                sumU / static_cast<double>(t.linkBusy.size());
        }
    }

    // Run totals no typed field carries (benches and perfbench read
    // them).
    stats_.set("misses", static_cast<double>(t.misses));
    stats_.set("dma_loads_issued", dmaLoads);
    stats_.set("dma_load_bytes", dmaLoadBytes);

    controller_.reset();
    faults_.reset();
    rs_.reset();
    return result;
}

ServingSimulator::ServingSimulator(ServingConfig cfg)
    : cluster_([&cfg] {
          ClusterConfig single; // one node, full replication
          single.node = std::move(cfg);
          return single;
      }())
{
}

ServingResult
ServingSimulator::run()
{
    const ServingConfig &cfg = cluster_.config().node;
    const PhaseCosts &costs = cluster_.phaseCosts();
    // Every expert (or adapter) of buildServingZoo() is one size.
    double expert_bytes = cfg.zoo.enabled
        ? loraAdapterBytes(cfg.expertBase, cfg.zoo.rank)
        : cfg.expertBase.weightBytes();
    ServingResult result;
    result.residentCapacityExperts = static_cast<int>(
        static_cast<double>(
            ServingEngine::effectiveExpertRegionBytes(cfg, costs)) /
        expert_bytes);

    ClusterResult r = cluster_.run();
    result.oom = r.oom;
    if (r.oom)
        return result;
    result.stream = r.stream;
    result.perBatch = r.perBatch;
    result.missRate = r.missRate;
    result.expertSecondsPerPrompt = costs.promptSeconds(cfg.outputTokens);
    return result;
}

} // namespace sn40l::coe

#include "coe/controller.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <utility>
#include <vector>

#include "coe/cluster.h"
#include "coe/metrics_io.h"
#include "sim/log.h"
#include "sim/ticks.h"
#include "util/json.h"

namespace sn40l::coe {

const char *
controllerPolicyName(ControllerPolicy policy)
{
    switch (policy) {
      case ControllerPolicy::Static: return "static";
      case ControllerPolicy::ReactiveThreshold: return "reactive";
      case ControllerPolicy::TargetUtilization: return "target-util";
    }
    sim::panic("controllerPolicyName: unknown policy");
}

ControllerPolicy
controllerPolicyFromName(const std::string &name)
{
    if (name == "static" || name == "none")
        return ControllerPolicy::Static;
    if (name == "reactive" || name == "reactive-threshold")
        return ControllerPolicy::ReactiveThreshold;
    if (name == "target-util" || name == "target-utilization")
        return ControllerPolicy::TargetUtilization;
    sim::fatal("unknown controller policy '" + name +
               "' (expected static, reactive, or target-util)");
}

void
validateControllerConfig(const ControllerConfig &cfg, int nodes)
{
    if (cfg.policy == ControllerPolicy::Static)
        return; // the remaining knobs are inert
    sim::requireTickSeconds(
        cfg.tickSeconds, "ControllerConfig: tickSeconds (--controller-tick)",
        /*positive=*/true);
    // NaN fails every comparison below, so each check is written as
    // "not (valid)".
    if (cfg.minNodes < 1 || cfg.minNodes > nodes)
        sim::fatal("ControllerConfig: minNodes (--controller-min) "
                   "outside [1, nodes]");
    if (cfg.maxNodes != 0 &&
        (cfg.maxNodes < cfg.minNodes || cfg.maxNodes > nodes))
        sim::fatal("ControllerConfig: maxNodes (--controller-max) "
                   "outside [minNodes, nodes]");
    if (!(std::isfinite(cfg.scaleUpQueueDepth) &&
          cfg.scaleDownQueueDepth >= 0.0 &&
          cfg.scaleUpQueueDepth > cfg.scaleDownQueueDepth))
        sim::fatal("ControllerConfig: scaleUpQueueDepth "
                   "(--controller-up-depth) must be finite and exceed the "
                   "non-negative scaleDownQueueDepth "
                   "(--controller-down-depth)");
    if (!(cfg.targetUtilization > 0.0 && cfg.targetUtilization <= 1.0))
        sim::fatal("ControllerConfig: targetUtilization "
                   "(--controller-target-util) must be in (0, 1]");
    if (cfg.cooldownTicks < 0)
        sim::fatal("ControllerConfig: cooldownTicks (--controller-cooldown) "
                   "must be non-negative");
    if (cfg.hotExpertTrack < 0)
        sim::fatal("ControllerConfig: hotExpertTrack (--controller-hot) "
                   "must be non-negative");
}

ClusterController::ClusterController(ClusterSimulator &cluster,
                                     ControllerConfig cfg)
    : cluster_(cluster), cfg_(std::move(cfg))
{
    const ClusterConfig &cc = cluster_.config();
    maxNodes_ = cfg_.maxNodes > 0 ? cfg_.maxNodes : cc.nodes;

    // Model-based capacity estimate for TargetUtilization: a batch
    // occupies the node for roughly router + batch * per-request
    // execution, so the sustainable per-node rate is batch over that
    // (switch stalls make the real rate lower; targetUtilization < 1
    // is the headroom for them).
    double batchSeconds = cluster_.phaseCosts().batchSeconds(
        cc.node.batch, cc.node.outputTokens);
    serviceRatePerNode_ = batchSeconds > 0.0
        ? static_cast<double>(cc.node.batch) / batchSeconds
        : 0.0;
}

void
ClusterController::start()
{
    const ClusterConfig &cc = cluster_.config();
    if (cfg_.hotExpertTrack > 0) {
        const ExpertPlacement &p = cluster_.placement();
        baselineReplicas_.resize(p.hostsOfExpert.size());
        for (std::size_t e = 0; e < p.hostsOfExpert.size(); ++e)
            baselineReplicas_[e] =
                static_cast<int>(p.hostsOfExpert[e].size());
    }
    // Start at the floor and earn capacity from the metrics: park the
    // highest-id nodes down to minNodes before any traffic arrives.
    for (int n = cc.nodes - 1;
         n >= 0 && cluster_.liveNodes() > cfg_.minNodes; --n)
        cluster_.drainNode(n);
    scheduleTick();
}

void
ClusterController::scheduleTick()
{
    cluster_.eventQueue().scheduleIn(
        sim::fromSeconds(cfg_.tickSeconds), [this]() { tick(); },
        "cluster.controller_tick");
}

void
ClusterController::tick()
{
    ++ticks_;
    MetricsSnapshot snap = cluster_.snapshot();

    std::string action = "none";
    if (scalePerSnapshot(snap))
        action = cluster_.liveNodes() > snap.liveNodes ? "scale_up"
                                                       : "scale_down";
    int hot = trackHotExperts(snap);
    if (hot > 0 && action == "none")
        action = "re_replicate";
    if (!cfg_.logPath.empty())
        logTick(snap, action);

    // Keep ticking until the cluster is fully drained; the tick event
    // is what keeps the queue alive past the workload, so stopping
    // here is what lets the run end.
    if (!cluster_.idle())
        scheduleTick();
}

bool
ClusterController::scalePerSnapshot(const MetricsSnapshot &snap)
{
    int live = snap.liveNodes;
    bool wantUp = false;
    bool wantDown = false;
    if (cfg_.policy == ControllerPolicy::ReactiveThreshold) {
        // Scale up on queue pressure, any shed in the window, or any
        // chaos-layer distress (lost or retried requests mean a node
        // failed — add capacity, don't wait for the queues to show
        // it); scale down only once the queues are near-empty. The
        // chaos counters are zero on fault-free runs, so this changes
        // nothing for them.
        wantUp = snap.meanQueueDepthPerLiveNode >
                cfg_.scaleUpQueueDepth ||
            snap.shed > 0 || snap.lost > 0 || snap.retried > 0;
        wantDown = !wantUp &&
            snap.meanQueueDepthPerLiveNode < cfg_.scaleDownQueueDepth;
    } else { // TargetUtilization
        double capacity =
            serviceRatePerNode_ * static_cast<double>(live);
        double util = capacity > 0.0
            ? snap.arrivalRatePerSec / capacity
            : 0.0;
        wantUp = util > cfg_.targetUtilization || snap.shed > 0 ||
            snap.lost > 0 || snap.retried > 0;
        if (!wantUp && live > 1) {
            // Drop a node only if the survivors would still run with
            // 10% headroom under the target and queues are calm.
            double shrunk = snap.arrivalRatePerSec /
                (serviceRatePerNode_ * static_cast<double>(live - 1));
            wantDown = shrunk < cfg_.targetUtilization * 0.9 &&
                snap.meanQueueDepthPerLiveNode <
                    cfg_.scaleUpQueueDepth;
        }
    }

    const int nodes = cluster_.config().nodes;
    if (wantUp && live < maxNodes_) {
        // Scale-up is never cooldown-gated: under-provisioning hurts
        // the SLO now. Rejoin the lowest-id parked node.
        for (int n = 0; n < nodes; ++n) {
            if (cluster_.rejoinNode(n)) {
                ++actions_;
                lastScaleTick_ = ticks_;
                return true;
            }
        }
        return false;
    }
    if (wantDown && live > cfg_.minNodes &&
        ticks_ - lastScaleTick_ >= cfg_.cooldownTicks) {
        // Park the highest-id live node; its queued work (usually
        // none, the queues are calm) re-dispatches losslessly.
        for (int n = nodes - 1; n >= 0; --n) {
            if (cluster_.drainNode(n)) {
                ++actions_;
                lastScaleTick_ = ticks_;
                return true;
            }
        }
    }
    return false;
}

int
ClusterController::trackHotExperts(const MetricsSnapshot &snap)
{
    if (cfg_.hotExpertTrack <= 0)
        return 0;

    // Top-K experts by windowed dispatch hits (hits required: an
    // idle window boosts nothing new).
    std::vector<int> order;
    order.reserve(snap.expertHits.size());
    for (std::size_t e = 0; e < snap.expertHits.size(); ++e)
        if (snap.expertHits[e] > 0)
            order.push_back(static_cast<int>(e));
    std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(cfg_.hotExpertTrack), order.size());
    std::partial_sort(
        order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
        order.end(), [&snap](int a, int b) {
            auto ha = snap.expertHits[static_cast<std::size_t>(a)];
            auto hb = snap.expertHits[static_cast<std::size_t>(b)];
            return ha != hb ? ha > hb : a < b; // deterministic ties
        });
    order.resize(k);

    int applied = 0;
    std::set<int> hot(order.begin(), order.end());
    // Boost the newly hot onto every live node.
    for (int e : order) {
        if (boosted_.count(e))
            continue;
        if (cluster_.setReplication(e, cluster_.liveNodes()))
            ++applied;
        boosted_.insert(e);
    }
    // Revert boosts for experts that cooled off.
    for (auto it = boosted_.begin(); it != boosted_.end();) {
        if (hot.count(*it)) {
            ++it;
            continue;
        }
        if (cluster_.setReplication(
                *it,
                baselineReplicas_[static_cast<std::size_t>(*it)]))
            ++applied;
        it = boosted_.erase(it);
    }
    actions_ += applied;
    return applied;
}

void
ClusterController::logTick(const MetricsSnapshot &snap,
                           const std::string &action)
{
    util::JsonWriter w(log_);
    w.beginObject();
    snapshotJsonFields(w, snap);
    w.field("action", action).endObject();
    log_ << '\n';
}

void
ClusterController::finish()
{
    if (cfg_.logPath.empty())
        return;
    std::ofstream out(cfg_.logPath);
    if (!out)
        sim::fatal("controller: cannot write log " + cfg_.logPath);
    out << log_.str();
    if (!out)
        sim::fatal("controller: write to " + cfg_.logPath + " failed");
}

} // namespace sn40l::coe

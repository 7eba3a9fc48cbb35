/**
 * @file
 * Chaos-engineering layer for the CoE serving cluster: scheduled
 * fault injection plus the degraded-mode policy knobs the cluster
 * uses to serve through those faults.
 *
 * Faults are scripted, not sampled at fire time: a FaultEvent list
 * (hand-built, or loaded from a JSONL fault schedule symmetric with
 * the PR 5 request traces) is armed in ClusterSimulator::begin() and
 * every event fires as an ordinary event on the cluster's queue, like
 * ScheduledAction and the controller tick. Injection is therefore
 * deterministic, and an empty schedule arms nothing at all (the
 * no-fault path pays zero cost).
 *
 * Fault kinds:
 *  - crash:     the node dies mid-batch; queued AND in-flight
 *               requests are displaced and either retried under the
 *               policy budget (original arrival timestamps preserved)
 *               or counted lost. duration > 0 schedules a rejoin.
 *  - dma-stall: multiply the node's DMA completion times by `factor`
 *               (mem::DmaEngine rate-factor hook); duration restores.
 *  - straggler: persistent per-node service-time multiplier `factor`
 *               on prompt execution; duration restores.
 *  - flaky:     transient request-level failures: dispatches to the
 *               node fail with probability `factor` for `duration`
 *               seconds and fall into the same retry/lost path.
 *  - link-degrade: stretch the serialization time of every fabric
 *               link adjacent to the node by `factor` (congested or
 *               flapping NIC); requires the interconnect
 *               (ClusterConfig::fabric.enabled); duration restores.
 */

#ifndef SN40L_COE_FAULTS_H
#define SN40L_COE_FAULTS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sn40l::coe {

class ClusterSimulator;

/** What a scheduled fault does to its node when its time arrives. */
enum class FaultKind {
    NodeCrash,   ///< node dies; displaced work retried or lost
    DmaStall,    ///< DMA completions stretched by `factor`
    Straggler,   ///< prompt execution stretched by `factor`
    FlakyNode,   ///< dispatches fail with probability `factor`
    LinkDegrade, ///< node's fabric links stretched by `factor`
};

const char *faultKindName(FaultKind kind);
FaultKind faultKindFromName(const std::string &name);

/** One scripted fault at a fixed simulation time. */
struct FaultEvent
{
    double atSeconds = 0.0;
    FaultKind kind = FaultKind::NodeCrash;
    int node = 0;
    /**
     * Kind-specific magnitude: DMA/straggler stretch factor (>= 1),
     * flaky failure probability in [0, 1]. Ignored by crash.
     */
    double factor = 1.0;
    /**
     * Seconds until the fault heals (crash rejoins, factors restore
     * to 1.0, flaky probability drops to 0). 0 = permanent.
     */
    double durationSeconds = 0.0;
};

/**
 * Degraded-mode serving policies, all disabled by default so a
 * default-constructed config is bit-identical to the pre-chaos
 * cluster. The cluster consults these hub-side: retries fire after
 * their backoff, and hedge/brownout decisions at dispatch use only
 * hub-visible state refreshed at policy ticks — the policy models a
 * router with a periodic view of its nodes, not live engine queues.
 */
struct FaultPolicyConfig
{
    /**
     * Bounded retry: a crashed or transiently failed request is
     * re-dispatched (original arrival timestamp preserved) up to this
     * many times before it is counted lost. 0 disables retries — every
     * displaced request is lost.
     */
    int retryMax = 0;
    /** Base backoff before the first retry; doubles per attempt. */
    double retryBackoffSeconds = 0.05;
    /** Cluster-wide cap on total retries; -1 = unbounded. */
    std::int64_t retryBudget = -1;

    /**
     * Hedged dispatch: when the chosen node's hub-side queueing-delay
     * estimate exceeds hedgeThreshold * (1 + priority) * deadline, a
     * duplicate is dispatched to the best other eligible node and the
     * loser is cancelled. Requests without a deadline never hedge.
     */
    bool hedge = false;
    double hedgeThreshold = 1.0;

    /**
     * Priority-tier brown-out: when the mean admission-queue depth
     * per live node (sampled at policy ticks) exceeds this, the
     * cluster sheds arriving requests with priority <=
     * brownoutPriorityMax until the depth recovers. 0 disables.
     */
    double brownoutDepth = 0.0;
    int brownoutPriorityMax = 0;

    /**
     * Cadence of the policy tick that refreshes hedge estimates,
     * resolves hedge winners, and re-evaluates brown-out. Armed only
     * when hedging or brown-out is enabled.
     */
    double policyTickSeconds = 0.05;

    bool retriesEnabled() const { return retryMax > 0; }
    bool anyEnabled() const
    {
        return retriesEnabled() || hedge || brownoutDepth > 0.0;
    }
};

/**
 * FatalError on a malformed schedule: negative or decreasing times,
 * node ids outside [0, nodes), stretch factors below 1, flaky
 * probabilities outside [0, 1], or negative durations. @p nodes <= 0
 * skips the node-range check (schedule validated before a cluster
 * exists).
 */
void validateFaultSchedule(const std::vector<FaultEvent> &schedule,
                           int nodes);

/** FatalError on contradictory policy knobs. */
void validateFaultPolicy(const FaultPolicyConfig &policy);

/**
 * Fault-schedule JSONL, record/replay symmetric with the request
 * traces: a {"sn40l_faults":1,"events":N} header line followed by
 * exactly N fixed-field-order event lines
 *
 *   {"at":S,"kind":"crash","node":I,"factor":F,"duration":D}
 *
 * Any deviation — wrong field order, truncation, out-of-order times,
 * trailing garbage — dies with a FatalError naming file and line.
 */
void writeFaultSchedule(const std::string &path,
                        const std::vector<FaultEvent> &schedule);
std::vector<FaultEvent> loadFaultSchedule(const std::string &path);

/**
 * Arms a validated fault schedule on a cluster run: begin() calls
 * arm() once, which schedules every event (and its heal, when
 * durationSeconds > 0) on the cluster's event queue. The injector
 * owns no simulation state beyond counters — faults actuate the same
 * public surface the controller uses.
 */
class FaultInjector
{
  public:
    FaultInjector(ClusterSimulator &cluster,
                  std::shared_ptr<const std::vector<FaultEvent>> schedule);

    /** Schedule every fault of the active run. begin()-time only. */
    void arm();

    std::int64_t injectedCount() const { return injected_; }

  private:
    void fire(const FaultEvent &event);
    void heal(const FaultEvent &event);

    ClusterSimulator &cluster_;
    std::shared_ptr<const std::vector<FaultEvent>> schedule_;
    std::int64_t injected_ = 0;
};

} // namespace sn40l::coe

#endif // SN40L_COE_FAULTS_H

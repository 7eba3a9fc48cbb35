/**
 * @file
 * The cluster hub's dispatch step: which live node takes a request
 * for a given expert, under one of four DispatchPolicy rules.
 *
 * A Dispatcher reads the run's placement by reference and owns the
 * hub's view of which nodes are live. Its owner tells it when either
 * changes: setLive() on drain, crash and rejoin, placementChanged()
 * after a migration commit or a replication change. Each such call
 * starts a new epoch, and per-expert answers cached under an older
 * epoch are re-derived on their next use:
 *
 *  - while every host of an expert is live, its candidates are
 *    ExpertPlacement::hostsOfExpert[e] itself, not a per-pick copy
 *    (a down host filters them into a scratch list; an expert with no
 *    live host falls back to every live node, kept as one list);
 *  - expert-affinity memoizes each expert's consistent-hash ring home;
 *  - one candidate is every policy's answer, so least-outstanding,
 *    expert-affinity and topo-aware read no engine, ring or fabric
 *    state for it (round-robin still advances its cursor).
 *
 * Every pick, tie-breaks included, equals the one the uncached rule
 * would make; tests/test_dispatcher.cc holds it to that rule.
 */

#ifndef SN40L_COE_DISPATCHER_H
#define SN40L_COE_DISPATCHER_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sn40l::coe {

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

/** Expert-to-node placement map. */
struct ExpertPlacement
{
    std::vector<std::vector<int>> hostsOfExpert; ///< expert -> node ids
    std::vector<std::vector<int>> expertsOfNode; ///< node -> expert ids
    int replicas = 0; ///< total (expert, node) pairs
};

/** What a dispatch policy reads off the running cluster per pick. */
class DispatchSignals
{
  public:
    /** Requests queued or executing on @p node (least-outstanding). */
    virtual std::int64_t outstanding(int node) const = 0;
    /** Congestion of the hub -> @p node route (topo-aware). */
    virtual double hubCongestion(int node) = 0;
    /** Requests handed to @p node so far (topo-aware tie-break). */
    virtual std::int64_t dispatched(int node) const = 0;

  protected:
    ~DispatchSignals() = default;
};

/**
 * Consistent-hash ring over the node set. Every node contributes
 * kVirtualPoints points; an expert hashes to a ring position and
 * walks clockwise to the first eligible node. Because the ring is
 * built once over ALL nodes, removing a node (drain) only moves the
 * experts that lived on it — everyone else keeps their home node.
 */
class HashRing
{
  public:
    explicit HashRing(int nodes);

    /** First eligible node clockwise of @p expert's hash, or -1. */
    int lookup(int expert, const std::vector<char> &eligible) const;

  private:
    std::vector<std::pair<std::uint64_t, int>> points_;
};

class Dispatcher
{
  public:
    /**
     * Every node starts live. @p placement must outlive the
     * Dispatcher; @p signals is read on every pick that has more than
     * one candidate; @p fallbacks counts picks whose expert had no
     * live host.
     */
    Dispatcher(DispatchPolicy policy, const ExpertPlacement &placement,
               int nodes, DispatchSignals &signals, double &fallbacks);

    /** The node that takes a request for @p expert. */
    int pick(int expert);

    bool live(int node) const
    {
        return live_[static_cast<std::size_t>(node)] != 0;
    }
    int liveCount() const { return static_cast<int>(liveNodes_.size()); }
    /** Mark @p node up or down (no-op when it already is). */
    void setLive(int node, bool live);
    /** The placement's hostsOfExpert changed. */
    void placementChanged() { ++epoch_; }

    /** Picks so far, per expert id. */
    const std::vector<std::int64_t> &picks() const { return picks_; }

  private:
    const std::vector<int> &candidates(std::size_t expert);
    int ringHome(std::size_t expert, const std::vector<int> &candidates);

    DispatchPolicy policy_;
    const ExpertPlacement &placement_;
    DispatchSignals &signals_;
    double &fallbacks_;
    HashRing ring_;

    std::vector<char> live_;
    std::vector<int> liveNodes_; ///< live node ids, ascending
    /** Bumped by every liveness or placement change; starts at 1. */
    std::uint64_t epoch_ = 1;
    /** Per expert: the epoch at which every host was live. */
    std::vector<std::uint64_t> allLiveAt_;
    /** Per expert: the memoized ring home and the epoch it holds for. */
    std::vector<int> ringHome_;
    std::vector<std::uint64_t> ringHomeAt_;

    std::vector<std::int64_t> picks_;
    std::size_t rrCursor_ = 0;
    std::vector<int> scratch_;     ///< live hosts when some are down
    std::vector<char> isCandidate_; ///< ring lookup scratch
};

} // namespace sn40l::coe

#endif // SN40L_COE_DISPATCHER_H

#include "coe/dispatcher.h"

#include <algorithm>

#include "sim/log.h"
#include "sim/rng.h"

namespace sn40l::coe {

const char *
dispatchPolicyName(DispatchPolicy policy)
{
    switch (policy) {
      case DispatchPolicy::RoundRobin: return "round-robin";
      case DispatchPolicy::LeastOutstanding: return "least-outstanding";
      case DispatchPolicy::ExpertAffinity: return "expert-affinity";
      case DispatchPolicy::TopologyAware: return "topo-aware";
    }
    sim::panic("dispatchPolicyName: unknown policy");
}

DispatchPolicy
dispatchPolicyFromName(const std::string &name)
{
    if (name == "round-robin" || name == "rr")
        return DispatchPolicy::RoundRobin;
    if (name == "least-outstanding" || name == "least")
        return DispatchPolicy::LeastOutstanding;
    if (name == "expert-affinity" || name == "affinity")
        return DispatchPolicy::ExpertAffinity;
    if (name == "topo-aware" || name == "topology-aware")
        return DispatchPolicy::TopologyAware;
    sim::fatal("unknown dispatch policy '" + name +
               "' (expected round-robin, least-outstanding, "
               "expert-affinity, or topo-aware)");
}

using sim::mix64; // the consistent-hash ring's hash

HashRing::HashRing(int nodes)
{
    constexpr int kVirtualPoints = 16;
    points_.reserve(static_cast<std::size_t>(nodes) * kVirtualPoints);
    for (int n = 0; n < nodes; ++n)
        for (int v = 0; v < kVirtualPoints; ++v)
            points_.emplace_back(
                mix64((static_cast<std::uint64_t>(n) << 32) |
                      static_cast<std::uint64_t>(v)),
                n);
    std::sort(points_.begin(), points_.end());
}

int
HashRing::lookup(int expert, const std::vector<char> &eligible) const
{
    std::uint64_t h =
        mix64(0xc0e5e4f1ull ^ static_cast<std::uint64_t>(expert));
    auto it = std::lower_bound(points_.begin(), points_.end(),
                               std::make_pair(h, -1));
    for (std::size_t walked = 0; walked < points_.size(); ++walked) {
        if (it == points_.end())
            it = points_.begin();
        if (eligible[static_cast<std::size_t>(it->second)])
            return it->second;
        ++it;
    }
    return -1;
}

Dispatcher::Dispatcher(DispatchPolicy policy,
                       const ExpertPlacement &placement, int nodes,
                       DispatchSignals &signals, double &fallbacks)
    : policy_(policy), placement_(placement), signals_(signals), fallbacks_(fallbacks), ring_(nodes),
      live_(static_cast<std::size_t>(nodes), 1),
      isCandidate_(static_cast<std::size_t>(nodes), 0)
{
    const std::size_t experts = placement.hostsOfExpert.size();
    liveNodes_.reserve(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n)
        liveNodes_.push_back(n);
    allLiveAt_.assign(experts, 0);
    ringHome_.assign(experts, -1);
    ringHomeAt_.assign(experts, 0);
    picks_.assign(experts, 0);
    scratch_.reserve(static_cast<std::size_t>(nodes));
}

void
Dispatcher::setLive(int node, bool live)
{
    char &l = live_[static_cast<std::size_t>(node)];
    if ((l != 0) == live)
        return;
    l = live ? 1 : 0;
    liveNodes_.clear();
    for (std::size_t n = 0; n < live_.size(); ++n)
        if (live_[n])
            liveNodes_.push_back(static_cast<int>(n));
    ++epoch_;
}

/**
 * The live hosts of @p expert, in placement order; every live node,
 * in id order, when none is live (the node then demand-streams the
 * expert from its own DDR copy of the zoo).
 */
const std::vector<int> &
Dispatcher::candidates(std::size_t expert)
{
    const std::vector<int> &hosts = placement_.hostsOfExpert[expert];
    if (allLiveAt_[expert] == epoch_)
        return hosts;
    scratch_.clear();
    for (int n : hosts)
        if (live_[static_cast<std::size_t>(n)])
            scratch_.push_back(n);
    if (scratch_.empty()) {
        fallbacks_ += 1.0;
        if (liveNodes_.empty())
            sim::panic("cluster: no live node to dispatch to");
        return liveNodes_;
    }
    if (scratch_.size() == hosts.size()) {
        allLiveAt_[expert] = epoch_;
        return hosts;
    }
    return scratch_;
}

int
Dispatcher::ringHome(std::size_t expert, const std::vector<int> &candidates)
{
    if (ringHomeAt_[expert] == epoch_)
        return ringHome_[expert];
    for (int n : candidates)
        isCandidate_[static_cast<std::size_t>(n)] = 1;
    int home = ring_.lookup(static_cast<int>(expert), isCandidate_);
    for (int n : candidates)
        isCandidate_[static_cast<std::size_t>(n)] = 0;
    sim::simAssert(home >= 0, "cluster: ring lookup failed");
    ringHome_[expert] = home;
    ringHomeAt_[expert] = epoch_;
    return home;
}

int
Dispatcher::pick(int expert)
{
    auto e = static_cast<std::size_t>(expert);
    ++picks_[e];
    const std::vector<int> &c = candidates(e);
    // One candidate is every policy's answer; round-robin still
    // advances its cursor.
    if (c.size() == 1 && policy_ != DispatchPolicy::RoundRobin)
        return c.front();
    switch (policy_) {
      case DispatchPolicy::RoundRobin:
        return c[rrCursor_++ % c.size()];
      case DispatchPolicy::LeastOutstanding: {
        int best = c.front();
        std::int64_t best_out = signals_.outstanding(best);
        for (std::size_t i = 1; i < c.size(); ++i) {
            int n = c[i];
            std::int64_t out = signals_.outstanding(n);
            if (out < best_out) { // ties keep the lowest node id
                best = n;
                best_out = out;
            }
        }
        return best;
      }
      case DispatchPolicy::ExpertAffinity:
        return ringHome(e, c);
      case DispatchPolicy::TopologyAware: {
        // Least-congested hub -> node path, read off the network
        // state. First tie-break: fewest requests sent so far, so an
        // idle fabric degenerates to an even spread.
        int best = c.front();
        double bestCong = signals_.hubCongestion(best);
        for (std::size_t i = 1; i < c.size(); ++i) {
            int n = c[i];
            double cong = signals_.hubCongestion(n);
            if (cong < bestCong ||
                (cong == bestCong &&
                 signals_.dispatched(n) < signals_.dispatched(best))) {
                best = n;
                bestCong = cong;
            }
        }
        return best;
      }
    }
    sim::panic("cluster: unknown dispatch policy");
}

} // namespace sn40l::coe

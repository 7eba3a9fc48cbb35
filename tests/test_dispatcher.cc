/**
 * @file
 * Tests for the cluster hub's Dispatcher (coe/dispatcher.h): every
 * pick, under all four policies, against the uncached dispatch rule
 * it replaced (ReferenceDispatch below, which rebuilds the live-host
 * candidate list and walks the ring on every pick), over randomized
 * liveness, replication and migration sequences; once on a bare
 * Dispatcher with randomized load and congestion signals, and once
 * through ClusterSimulator's own actuators, so an actuator that does
 * not tell the Dispatcher about a change fails here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "coe/dispatcher.h"
#include "coe/serving_engine.h"
#include "sim/log.h"
#include "sim/rng.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

/**
 * The dispatch rule before the Dispatcher cached anything: the live
 * hosts of the expert, or every live node when none is live, then
 * the policy over that list.
 */
class ReferenceDispatch
{
  public:
    ReferenceDispatch(DispatchPolicy policy,
                      const ExpertPlacement &placement,
                      const std::vector<char> &live,
                      DispatchSignals &signals)
        : policy_(policy), placement_(placement), live_(live),
          signals_(signals), ring_(static_cast<int>(live.size())),
          isCandidate_(live.size(), 0)
    {
    }

    int
    pick(int expert)
    {
        const int nodes = static_cast<int>(live_.size());
        candidates_.clear();
        for (int n :
             placement_.hostsOfExpert[static_cast<std::size_t>(expert)])
            if (live_[static_cast<std::size_t>(n)])
                candidates_.push_back(n);
        if (candidates_.empty()) {
            fallbacks_ += 1.0;
            for (int n = 0; n < nodes; ++n)
                if (live_[static_cast<std::size_t>(n)])
                    candidates_.push_back(n);
        }
        if (candidates_.empty())
            sim::panic("cluster: no live node to dispatch to");
        switch (policy_) {
          case DispatchPolicy::RoundRobin:
            return candidates_[rrCursor_++ % candidates_.size()];
          case DispatchPolicy::LeastOutstanding: {
            int best = candidates_.front();
            std::int64_t best_out = signals_.outstanding(best);
            for (std::size_t i = 1; i < candidates_.size(); ++i) {
                int n = candidates_[i];
                std::int64_t out = signals_.outstanding(n);
                if (out < best_out) {
                    best = n;
                    best_out = out;
                }
            }
            return best;
          }
          case DispatchPolicy::ExpertAffinity: {
            for (int n : candidates_)
                isCandidate_[static_cast<std::size_t>(n)] = 1;
            int n = ring_.lookup(expert, isCandidate_);
            for (int c : candidates_)
                isCandidate_[static_cast<std::size_t>(c)] = 0;
            sim::simAssert(n >= 0, "cluster: ring lookup failed");
            return n;
          }
          case DispatchPolicy::TopologyAware: {
            int best = candidates_.front();
            double bestCong = signals_.hubCongestion(best);
            for (std::size_t i = 1; i < candidates_.size(); ++i) {
                int n = candidates_[i];
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

    double fallbacks() const { return fallbacks_; }

  private:
    DispatchPolicy policy_;
    const ExpertPlacement &placement_;
    const std::vector<char> &live_;
    DispatchSignals &signals_;
    HashRing ring_;
    std::vector<char> isCandidate_;
    std::vector<int> candidates_;
    std::size_t rrCursor_ = 0;
    double fallbacks_ = 0.0;
};

/** Load, congestion and send counts drawn from small ranges, so
 *  ties (and so the tie-breaks) are common. */
class RandomSignals final : public DispatchSignals
{
  public:
    explicit RandomSignals(int nodes)
        : outstanding_(static_cast<std::size_t>(nodes)),
          congestion_(static_cast<std::size_t>(nodes)),
          dispatched_(static_cast<std::size_t>(nodes))
    {
    }

    void
    redraw(sim::Rng &rng)
    {
        for (std::size_t n = 0; n < outstanding_.size(); ++n) {
            outstanding_[n] = static_cast<std::int64_t>(rng.uniformInt(4));
            congestion_[n] = 0.5 * static_cast<double>(rng.uniformInt(3));
            dispatched_[n] = static_cast<std::int64_t>(rng.uniformInt(3));
        }
    }

    std::int64_t
    outstanding(int node) const override
    {
        return outstanding_[static_cast<std::size_t>(node)];
    }
    double
    hubCongestion(int node) override
    {
        return congestion_[static_cast<std::size_t>(node)];
    }
    std::int64_t
    dispatched(int node) const override
    {
        return dispatched_[static_cast<std::size_t>(node)];
    }

  private:
    std::vector<std::int64_t> outstanding_;
    std::vector<double> congestion_;
    std::vector<std::int64_t> dispatched_;
};

/** A cluster's engines as ClusterSimulator's dispatch reads them. */
class EngineSignals final : public DispatchSignals
{
  public:
    explicit EngineSignals(ClusterSimulator &sim) : sim_(sim) {}

    std::int64_t
    outstanding(int node) const override
    {
        return sim_.engine(node).outstanding();
    }
    double hubCongestion(int) override { return 0.0; }
    std::int64_t dispatched(int) const override { return 0; }

  private:
    ClusterSimulator &sim_;
};

int
draw(sim::Rng &rng, int bound)
{
    return static_cast<int>(
        rng.uniformInt(static_cast<std::uint64_t>(bound)));
}

bool
hosts(const ExpertPlacement &p, int expert, int node)
{
    const std::vector<int> &h =
        p.hostsOfExpert[static_cast<std::size_t>(expert)];
    return std::find(h.begin(), h.end(), node) != h.end();
}

/** Grow, shrink or move one expert's hosts, the edits the cluster's
 *  setReplication and commitMigration make. */
void
editPlacement(ExpertPlacement &p, int nodes, sim::Rng &rng)
{
    const int experts = static_cast<int>(p.hostsOfExpert.size());
    const int e = draw(rng, experts);
    std::vector<int> &h = p.hostsOfExpert[static_cast<std::size_t>(e)];
    const int other = draw(rng, nodes);
    auto dropFrom = [&p, e](int node) {
        std::vector<int> &ex = p.expertsOfNode[static_cast<std::size_t>(node)];
        ex.erase(std::find(ex.begin(), ex.end(), e));
    };
    switch (draw(rng, 3)) {
      case 0: // replicate onto another node
        if (!hosts(p, e, other)) {
            h.push_back(other);
            p.expertsOfNode[static_cast<std::size_t>(other)].push_back(e);
            ++p.replicas;
        }
        break;
      case 1: // drop a replica, keeping one
        if (h.size() > 1) {
            auto it = h.begin() + draw(rng, static_cast<int>(h.size()));
            dropFrom(*it);
            h.erase(it);
            --p.replicas;
        }
        break;
      default: // migrate a replica in place
        if (!hosts(p, e, other)) {
            auto it = h.begin() + draw(rng, static_cast<int>(h.size()));
            dropFrom(*it);
            *it = other;
            p.expertsOfNode[static_cast<std::size_t>(other)].push_back(e);
        }
        break;
    }
}

constexpr DispatchPolicy kPolicies[] = {
    DispatchPolicy::RoundRobin, DispatchPolicy::LeastOutstanding,
    DispatchPolicy::ExpertAffinity, DispatchPolicy::TopologyAware};

} // namespace

TEST(Dispatcher, PicksMatchTheUncachedRuleUnderRandomChanges)
{
    std::int64_t picks = 0, fallbacks = 0, edits = 0, flips = 0;
    for (DispatchPolicy policy : kPolicies) {
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
            SCOPED_TRACE(std::string(dispatchPolicyName(policy)) +
                         " seed " + std::to_string(seed));
            sim::Rng rng(seed);
            const int nodes = 1 + draw(rng, 9);
            const int experts = 1 + draw(rng, 40);
            ExpertPlacement placement = makePlacement(
                static_cast<PlacementPolicy>(draw(rng, 3)), experts, nodes,
                draw(rng, experts + 1));
            std::vector<char> live(static_cast<std::size_t>(nodes), 1);
            RandomSignals signals(nodes);
            signals.redraw(rng);
            double fast_fallbacks = 0.0;
            Dispatcher fast(policy, placement, nodes, signals,
                            fast_fallbacks);
            ReferenceDispatch ref(policy, placement, live, signals);
            std::vector<std::int64_t> refPicks(
                static_cast<std::size_t>(experts), 0);
            for (int step = 0; step < 3000; ++step) {
                double roll = rng.uniformDouble();
                if (roll < 0.03) {
                    int n = draw(rng, nodes);
                    auto ns = static_cast<std::size_t>(n);
                    int up = static_cast<int>(
                        std::count(live.begin(), live.end(), 1));
                    if (live[ns] && up <= 1)
                        continue; // the cluster keeps one node live
                    live[ns] = live[ns] ? 0 : 1;
                    fast.setLive(n, live[ns] != 0);
                    ++flips;
                } else if (roll < 0.06) {
                    editPlacement(placement, nodes, rng);
                    fast.placementChanged();
                    ++edits;
                } else if (roll < 0.15) {
                    signals.redraw(rng);
                } else {
                    int e = draw(rng, experts);
                    ++refPicks[static_cast<std::size_t>(e)];
                    ASSERT_EQ(fast.pick(e), ref.pick(e))
                        << "step " << step << ", expert " << e;
                    ++picks;
                }
            }
            int up = static_cast<int>(std::count(live.begin(), live.end(), 1));
            EXPECT_EQ(fast.liveCount(), up);
            for (int n = 0; n < nodes; ++n)
                EXPECT_EQ(fast.live(n), live[static_cast<std::size_t>(n)] != 0);
            EXPECT_EQ(fast.picks(), refPicks);
            EXPECT_EQ(fast_fallbacks, ref.fallbacks());
            fallbacks += static_cast<std::int64_t>(ref.fallbacks());
        }
    }
    // The sequences exercised every kind of change and the fallback.
    EXPECT_GT(picks, 100'000);
    EXPECT_GT(flips, 1000);
    EXPECT_GT(edits, 1000);
    EXPECT_GT(fallbacks, 0);
}

TEST(Dispatcher, ClusterActuatorsKeepPicksEqualToTheUncachedRule)
{
    // Affinity, least-outstanding and round-robin over the cluster's
    // own placement and liveness, re-checked for every expert after
    // each drain, crash, rejoin, replication change and migration.
    for (DispatchPolicy policy :
         {DispatchPolicy::ExpertAffinity, DispatchPolicy::LeastOutstanding,
          DispatchPolicy::RoundRobin}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(std::string(dispatchPolicyName(policy)) +
                         " seed " + std::to_string(seed));
            ClusterConfig cfg;
            cfg.nodes = 5;
            cfg.dispatch = policy;
            cfg.placement = PlacementPolicy::ReplicateHotPartitionCold;
            cfg.hotExperts = 6;
            cfg.node.numExperts = 30;
            cfg.node.streamRequests = 50;
            cfg.node.seed = seed;
            ClusterSimulator sim(cfg);
            ASSERT_TRUE(sim.begin());
            EngineSignals signals(sim);
            std::vector<char> live(static_cast<std::size_t>(cfg.nodes), 1);
            ReferenceDispatch ref(policy, sim.placement(), live, signals);
            auto checkEveryExpert = [&](int step) {
                for (int n = 0; n < cfg.nodes; ++n)
                    live[static_cast<std::size_t>(n)] =
                        sim.dispatcher().live(n) ? 1 : 0;
                for (int e = 0; e < cfg.node.numExperts; ++e)
                    ASSERT_EQ(sim.dispatcher().pick(e), ref.pick(e))
                        << "step " << step << ", expert " << e;
            };
            sim::Rng rng(seed);
            int changes = 0;
            for (int step = 0; step < 300; ++step) {
                checkEveryExpert(step);
                int e = draw(rng, cfg.node.numExperts);
                int a = draw(rng, cfg.nodes), b = draw(rng, cfg.nodes);
                bool changed = false;
                switch (draw(rng, 5)) {
                  case 0: changed = sim.drainNode(a); break;
                  case 1: changed = sim.crashNode(a); break;
                  case 2: changed = sim.rejoinNode(a); break;
                  case 3:
                    changed = sim.setReplication(e, 1 + draw(rng, 5));
                    break;
                  default: changed = sim.migrateExpert(e, a, b); break;
                }
                changes += changed;
            }
            checkEveryExpert(300);
            EXPECT_GT(changes, 100);
            sim.eventQueue().run();
            ClusterResult r = sim.finish();
            EXPECT_EQ(r.stream.completed + r.stream.shed + r.stream.lost,
                      cfg.node.streamRequests);
        }
    }
}

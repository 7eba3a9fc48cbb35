/**
 * @file
 * Differential digest matrix for the node execution path: ~24 seeded
 * 1-node and 4-node cluster runs, each reduced to an FNV-1a digest of
 * what a run observably produces — every node's completion log (id and
 * latency bits, in completion order), the cluster-wide latency and
 * switch-stall samples in recording order, the makespan and the miss
 * count. The digests were generated with one `coe.prompt_done` event
 * per prompt; any rescheduling of a batch's execution (how many events
 * it takes, when HBM traffic is booked) must reproduce them bit for
 * bit. Event counts are deliberately not part of the digest.
 *
 * Between them the configs cover prefetch at depth 1-4, stragglers and
 * crashes that begin and end mid-batch, DMA stalls, per-request prompt
 * and output lengths, spec decode with the PEFT zoo, and a 3-channel,
 * 4 KiB-interleave HBM override whose channel shares differ.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "coe/serving_engine.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

/** FNV-1a over the raw bytes of every folded value. */
class Fnv1a
{
  public:
    template <typename T>
    void
    add(const T &v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001b3ULL;
        }
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

ClusterConfig
baseConfig(int nodes, std::uint64_t seed)
{
    ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.node.mode = ServingMode::EventDriven;
    cfg.node.numExperts = 150;
    cfg.node.batch = 8;
    cfg.node.streamRequests = 360;
    cfg.node.routing = RoutingDistribution::Zipf;
    cfg.node.zipfS = 1.0;
    cfg.node.scheduler = SchedulerPolicy::ExpertAffinity;
    cfg.node.arrivalRatePerSec = 16.0 * nodes;
    cfg.node.seed = seed;
    if (nodes > 1) {
        cfg.placement = PlacementPolicy::ReplicateHotPartitionCold;
        cfg.dispatch = DispatchPolicy::LeastOutstanding;
    }
    return cfg;
}

void
prefetch(ClusterConfig &cfg, int depth)
{
    cfg.node.predictivePrefetch = true;
    cfg.node.prefetchDepth = depth;
}

/** 3 HBM channels at a 4 KiB interleave: unequal channel shares. */
void
threeChannelHbm(ClusterConfig &cfg)
{
    mem::MemorySystemConfig m = platformMemoryConfig(cfg.node);
    m.hbm.channels = 3;
    m.hbm.interleaveBytes = 4096;
    m.hbm.perChannelBandwidth *= 8.0 / 3.0;
    cfg.node.memoryOverride = m;
}

/** Two tenants with their own prompt length and decode-length range. */
void
variedLengths(ClusterConfig &cfg)
{
    TenantSpec chat;
    chat.name = "chat";
    chat.rateShare = 2.0;
    chat.promptLen = 512;
    chat.minOutputTokens = 4;
    chat.maxOutputTokens = 60;
    TenantSpec docs;
    docs.name = "docs";
    docs.rateShare = 1.0;
    docs.expertOffset = 40;
    docs.promptLen = 4096;
    docs.minOutputTokens = 10;
    docs.maxOutputTokens = 200;
    cfg.node.workload.tenantSpecs = {chat, docs};
}

void
specZoo(ClusterConfig &cfg)
{
    cfg.node.numExperts = 2000;
    cfg.node.zoo.enabled = true;
    cfg.node.zoo.rank = 16;
    cfg.node.expertRegionBytes = 15'600'000'000;
    cfg.node.specDecode.enabled = true;
    cfg.node.specDecode.gamma = 4;
    cfg.node.specDecode.acceptRate = 0.8;
    cfg.hotExperts = 0;
}

void
addFault(ClusterConfig &cfg, double at, FaultKind kind, int node,
         double factor, double duration)
{
    auto faults = cfg.faults
        ? std::make_shared<std::vector<FaultEvent>>(*cfg.faults)
        : std::make_shared<std::vector<FaultEvent>>();
    faults->push_back({at, kind, node, factor, duration});
    cfg.faults = faults;
}

struct Case
{
    const char *name;
    std::function<ClusterConfig()> make;
    std::uint64_t digest;
};

/** Run @p cfg to completion and digest what it observably produced. */
std::uint64_t
digestRun(const ClusterConfig &cfg)
{
    ClusterSimulator sim(cfg);
    EXPECT_TRUE(sim.begin());
    for (int n = 0; n < cfg.nodes; ++n)
        sim.engine(n).setLogCompletions(true);
    sim.eventQueue().run();

    Fnv1a h;
    for (int n = 0; n < cfg.nodes; ++n) {
        for (const ServingEngine::CompletionRecord &c :
             sim.engine(n).completionLog()) {
            h.add(c.id);
            h.add(c.latencySeconds);
            h.add(c.hedgeDuplicate);
        }
        h.add(sim.engine(n).missCount());
    }
    ClusterResult r = sim.finish();
    for (double s : sim.latencySamples().samples())
        h.add(s);
    for (double s : sim.stallSamples().samples())
        h.add(s);
    h.add(r.stream.makespanSeconds);
    h.add(r.stream.completed);
    h.add(r.stream.batches);
    h.add(r.missRate);
    return h.value();
}

std::vector<Case>
cases()
{
    return {
        {"one_node_fifo",
         [] {
             ClusterConfig c = baseConfig(1, 1);
             c.node.scheduler = SchedulerPolicy::Fifo;
             return c;
         },
         0xd2d2d2e93dca7335ULL},
        {"one_node_affinity", [] { return baseConfig(1, 2); },
         0x34171ec66e05a737ULL},
        {"one_node_prefetch_d1",
         [] {
             ClusterConfig c = baseConfig(1, 3);
             prefetch(c, 1);
             return c;
         },
         0x7bff28c9aeb37c10ULL},
        {"one_node_prefetch_d2",
         [] {
             ClusterConfig c = baseConfig(1, 4);
             prefetch(c, 2);
             return c;
         },
         0xcd4503fa2de46fb0ULL},
        {"one_node_prefetch_d3_fifo",
         [] {
             ClusterConfig c = baseConfig(1, 5);
             c.node.scheduler = SchedulerPolicy::Fifo;
             prefetch(c, 3);
             return c;
         },
         0x0d6adf197f90bd9bULL},
        {"one_node_prefetch_d4",
         [] {
             ClusterConfig c = baseConfig(1, 6);
             prefetch(c, 4);
             return c;
         },
         0xd7d3c855ab5b658cULL},
        {"one_node_hbm3x4k",
         [] {
             ClusterConfig c = baseConfig(1, 7);
             threeChannelHbm(c);
             return c;
         },
         0x42c98d1548530cfbULL},
        {"one_node_hbm3x4k_prefetch_d2",
         [] {
             ClusterConfig c = baseConfig(1, 8);
             threeChannelHbm(c);
             prefetch(c, 2);
             return c;
         },
         0x6ceef5695da2551eULL},
        {"one_node_lengths_prefetch_d3",
         [] {
             ClusterConfig c = baseConfig(1, 9);
             variedLengths(c);
             prefetch(c, 3);
             return c;
         },
         0xb3bb49d34fc8fc73ULL},
        {"one_node_straggler_prefetch_d2",
         [] {
             ClusterConfig c = baseConfig(1, 10);
             prefetch(c, 2);
             addFault(c, 4.37, FaultKind::Straggler, 0, 1.7, 6.11);
             return c;
         },
         0x5e036185671d0058ULL},
        {"one_node_dma_stall_prefetch_d4",
         [] {
             ClusterConfig c = baseConfig(1, 11);
             prefetch(c, 4);
             addFault(c, 3.29, FaultKind::DmaStall, 0, 5.0, 4.83);
             return c;
         },
         0x7e8b99a654d9bcd8ULL},
        {"one_node_spec_zoo",
         [] {
             ClusterConfig c = baseConfig(1, 12);
             specZoo(c);
             return c;
         },
         0x45c3d5ddfcda7552ULL},
        {"one_node_spec_zoo_prefetch_d3",
         [] {
             ClusterConfig c = baseConfig(1, 13);
             specZoo(c);
             prefetch(c, 3);
             return c;
         },
         0xf1a762550ebc1c3eULL},
        {"one_node_closed_loop_prefetch_d4",
         [] {
             ClusterConfig c = baseConfig(1, 14);
             c.node.arrival = ArrivalProcess::ClosedLoop;
             c.node.clients = 12;
             c.node.thinkSeconds = 0.2;
             prefetch(c, 4);
             return c;
         },
         0x3c76d280a79aa404ULL},
        {"one_node_batch1_prefetch_d2",
         [] {
             ClusterConfig c = baseConfig(1, 15);
             c.node.batch = 1;
             c.node.arrivalRatePerSec = 6.0;
             prefetch(c, 2);
             return c;
         },
         0x97ccb3e1c42e8c06ULL},
        {"four_node_prefetch_d2",
         [] {
             ClusterConfig c = baseConfig(4, 16);
             prefetch(c, 2);
             return c;
         },
         0x5eff9e7f864b7268ULL},
        {"four_node_crash_retry_prefetch_d4",
         [] {
             ClusterConfig c = baseConfig(4, 17);
             prefetch(c, 4);
             c.faultPolicy.retryMax = 3;
             addFault(c, 2.71, FaultKind::NodeCrash, 3, 1.0, 1.93);
             return c;
         },
         0x875856bf0b94a788ULL},
        {"four_node_crash_straggler_dma_stall",
         [] {
             ClusterConfig c = baseConfig(4, 18);
             c.faultPolicy.retryMax = 2;
             addFault(c, 1.13, FaultKind::DmaStall, 1, 4.0, 1.41);
             addFault(c, 2.07, FaultKind::Straggler, 2, 1.3, 2.59);
             addFault(c, 3.31, FaultKind::NodeCrash, 0, 1.0, 1.17);
             return c;
         },
         0xcee60004a8d17d7bULL},
        {"four_node_spec_zoo_chaos_prefetch_d1",
         [] {
             ClusterConfig c = baseConfig(4, 19);
             specZoo(c);
             c.dispatch = DispatchPolicy::ExpertAffinity;
             prefetch(c, 1);
             c.faultPolicy.retryMax = 3;
             addFault(c, 0.83, FaultKind::DmaStall, 1, 4.0, 1.07);
             addFault(c, 1.61, FaultKind::Straggler, 2, 1.3, 1.29);
             addFault(c, 2.57, FaultKind::NodeCrash, 3, 1.0, 0.97);
             return c;
         },
         0xbb76484a3b6bb037ULL},
        {"four_node_hbm3x4k_straggler_prefetch_d1",
         [] {
             ClusterConfig c = baseConfig(4, 20);
             threeChannelHbm(c);
             prefetch(c, 1);
             addFault(c, 1.77, FaultKind::Straggler, 1, 2.1, 2.23);
             return c;
         },
         0x222b0e1a17220109ULL},
        {"four_node_lengths_crash_prefetch_d3",
         [] {
             ClusterConfig c = baseConfig(4, 21);
             variedLengths(c);
             prefetch(c, 3);
             c.faultPolicy.retryMax = 3;
             addFault(c, 2.39, FaultKind::NodeCrash, 1, 1.0, 1.51);
             return c;
         },
         0xe451ca04eae5b26cULL},
        {"four_node_mesh_fabric_prefetch_d2",
         [] {
             ClusterConfig c = baseConfig(4, 22);
             c.fabric.enabled = true;
             c.fabric.topology = sim::Topology::Mesh2D;
             c.dispatch = DispatchPolicy::TopologyAware;
             prefetch(c, 2);
             return c;
         },
         0x72b226cf3cbbf1aaULL},
        {"four_node_affinity_dma_stall_prefetch_d3",
         [] {
             ClusterConfig c = baseConfig(4, 23);
             c.dispatch = DispatchPolicy::ExpertAffinity;
             prefetch(c, 3);
             addFault(c, 1.49, FaultKind::DmaStall, 0, 6.0, 2.03);
             return c;
         },
         0x9e4ad55665715879ULL},
        {"four_node_a100_prefetch_d2",
         [] {
             ClusterConfig c = baseConfig(4, 24);
             c.node.platform = Platform::DgxA100;
             c.node.arrivalRatePerSec = 3.0 * 4;
             c.node.streamRequests = 200;
             prefetch(c, 2);
             return c;
         },
         0x20feda2125188f05ULL},
    };
}

} // namespace

TEST(BatchExecutionDigests, MatchThePerPromptReference)
{
    for (const Case &c : cases()) {
        std::uint64_t got = digestRun(c.make());
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llxULL",
                      static_cast<unsigned long long>(got));
        EXPECT_EQ(got, c.digest) << c.name << " digest " << hex;
    }
}

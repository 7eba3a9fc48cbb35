/**
 * @file
 * The steady-state request path allocates nothing: admission queue,
 * batch formation, expert-region placement, DMA queues, fabric
 * hand-off and retries all reuse storage they already own. The
 * binary replaces the global operator new with a counting one that
 * forwards to malloc (so sanitizer builds still check every block)
 * and counts only while a run() is in progress. Each config runs at
 * N and 2N requests; whatever allocates per request, per batch or per
 * expert load shows up as growth in the count. Containers that double
 * (latency samples, per-request logs) add O(log N), far below the
 * bound.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "coe/cluster.h"
#include "coe/faults.h"
#include "coe/serving.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_allocs{0};

void *
countedAlloc(std::size_t bytes)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes == 0 ? 1 : bytes))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t bytes, std::align_val_t align)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    auto a = static_cast<std::size_t>(align);
    if (a < sizeof(void *))
        a = sizeof(void *);
    if (posix_memalign(&p, a, bytes == 0 ? 1 : bytes) != 0)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace sn40l;
using namespace sn40l::coe;

namespace {

constexpr int kN = 20'000;
/** Allowed allocations per added request (N -> 2N). */
constexpr double kMaxAllocsPerRequest = 0.02;

/** Counts the heap allocations of one run() of @p sim. */
template <typename Sim>
std::int64_t
allocsDuringRun(Sim &sim)
{
    g_allocs.store(0);
    g_counting.store(true);
    auto result = sim.run();
    g_counting.store(false);
    (void)result;
    return g_allocs.load();
}

ServingConfig
openLoopNode(int requests, double rate)
{
    ServingConfig n;
    n.mode = ServingMode::EventDriven;
    n.arrival = ArrivalProcess::Poisson;
    n.batch = 8;
    n.outputTokens = 20;
    n.routing = RoutingDistribution::Zipf;
    n.zipfS = 1.0;
    n.scheduler = SchedulerPolicy::ExpertAffinity;
    n.numExperts = 150;
    n.streamRequests = requests;
    n.arrivalRatePerSec = rate;
    n.seed = 3;
    return n;
}

ClusterConfig
meshCluster(int requests)
{
    ClusterConfig c;
    c.node = openLoopNode(requests, 96.0);
    c.nodes = 8;
    c.dispatch = DispatchPolicy::TopologyAware;
    c.placement = PlacementPolicy::ReplicateHotPartitionCold;
    c.fabric.enabled = true;
    c.fabric.topology = sim::Topology::Mesh2D;
    c.fabric.linkGbps = 200.0;
    c.fabric.linkLatencyUs = 2.0;
    c.fabric.linkBufferFlits = 64;
    return c;
}

ClusterConfig
zooChaosCluster(int requests)
{
    const double rate = 48.0;
    ClusterConfig c;
    c.node = openLoopNode(requests, rate);
    c.node.numExperts = 2000;
    c.node.zoo.enabled = true;
    c.node.zoo.rank = 16;
    c.node.zoo.churnEverySeconds = 30.0;
    c.node.expertRegionBytes = 15'600'000'000;
    c.node.specDecode.enabled = true;
    c.node.specDecode.gamma = 4;
    c.node.specDecode.acceptRate = 0.8;
    c.nodes = 4;
    c.dispatch = DispatchPolicy::ExpertAffinity;
    c.placement = PlacementPolicy::ReplicateHotPartitionCold;
    // Every fault lands inside the N-request run, so both runs see
    // the same faults and the difference is pure request volume.
    const double span = kN / rate;
    c.faults = std::make_shared<std::vector<FaultEvent>>(
        std::vector<FaultEvent>{
            {0.12 * span, FaultKind::DmaStall, 1, 4.0, 30.0},
            {0.30 * span, FaultKind::Straggler, 2, 1.3, 30.0},
            {0.48 * span, FaultKind::NodeCrash, 3, 1.0, 20.0},
            {0.66 * span, FaultKind::FlakyNode, 0, 0.02, 30.0},
        });
    c.faultPolicy.retryMax = 3;
    return c;
}

double
growthPerRequest(std::int64_t at_n, std::int64_t at_2n)
{
    return static_cast<double>(at_2n - at_n) / kN;
}

} // namespace

TEST(RequestPathAllocs, ServeIsAllocationFree)
{
    ServingSimulator small(openLoopNode(kN, 16.0));
    ServingSimulator large(openLoopNode(2 * kN, 16.0));
    std::int64_t a = allocsDuringRun(small);
    std::int64_t b = allocsDuringRun(large);
    EXPECT_LT(growthPerRequest(a, b), kMaxAllocsPerRequest)
        << "allocations during run(): " << a << " at N, " << b
        << " at 2N";
}

TEST(RequestPathAllocs, MeshFabricClusterIsAllocationFree)
{
    ClusterSimulator small(meshCluster(kN));
    ClusterSimulator large(meshCluster(2 * kN));
    std::int64_t a = allocsDuringRun(small);
    std::int64_t b = allocsDuringRun(large);
    EXPECT_LT(growthPerRequest(a, b), kMaxAllocsPerRequest)
        << "allocations during run(): " << a << " at N, " << b
        << " at 2N";
}

TEST(RequestPathAllocs, ZooSpecFaultsRetryClusterIsAllocationFree)
{
    ClusterSimulator small(zooChaosCluster(kN));
    ClusterSimulator large(zooChaosCluster(2 * kN));
    std::int64_t a = allocsDuringRun(small);
    std::int64_t b = allocsDuringRun(large);
    // The config must actually exercise the chaos path it names.
    EXPECT_GT(small.stats().get("retried"), 0.0);
    EXPECT_LT(growthPerRequest(a, b), kMaxAllocsPerRequest)
        << "allocations during run(): " << a << " at N, " << b
        << " at 2N";
}

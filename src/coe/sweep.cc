#include "coe/sweep.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/log.h"

namespace sn40l::coe {

std::vector<SweepPoint>
SweepGrid::points() const
{
    auto oneIfEmpty = [](std::size_t n) { return n == 0 ? 1 : n; };
    std::vector<SweepPoint> out;
    out.reserve(oneIfEmpty(nodeCounts.size()) *
                oneIfEmpty(placements.size()) *
                oneIfEmpty(expertCounts.size()) *
                oneIfEmpty(arrivalRates.size()) *
                oneIfEmpty(batchSizes.size()) *
                oneIfEmpty(policies.size()) * oneIfEmpty(seeds.size()));

    // Single-element fallbacks so every axis always iterates once.
    std::vector<int> experts = expertCounts.empty()
        ? std::vector<int>{base.numExperts}
        : expertCounts;
    std::vector<double> rates = arrivalRates.empty()
        ? std::vector<double>{base.arrivalRatePerSec}
        : arrivalRates;
    std::vector<int> batches =
        batchSizes.empty() ? std::vector<int>{base.batch} : batchSizes;
    std::vector<SchedulerPolicy> pols = policies.empty()
        ? std::vector<SchedulerPolicy>{base.scheduler}
        : policies;
    std::vector<std::uint64_t> sds = seeds.empty()
        ? std::vector<std::uint64_t>{base.seed}
        : seeds;

    // Cluster axes: nodes == 0 marks the classic single-node path.
    std::vector<int> nodes =
        nodeCounts.empty() ? std::vector<int>{0} : nodeCounts;
    std::vector<PlacementPolicy> places = placements.empty()
        ? std::vector<PlacementPolicy>{PlacementPolicy::FullReplication}
        : placements;

    int index = 0;
    for (int n : nodes) {
      for (PlacementPolicy place : places) {
        for (int e : experts) {
            for (double rate : rates) {
                for (int b : batches) {
                    for (SchedulerPolicy pol : pols) {
                        for (std::uint64_t seed : sds) {
                            SweepPoint p;
                            p.cfg = base;
                            p.cfg.numExperts = e;
                            p.cfg.arrivalRatePerSec = rate;
                            p.cfg.batch = b;
                            p.cfg.scheduler = pol;
                            p.cfg.seed = seed;
                            p.nodes = n;
                            p.placement = place;
                            p.dispatch = dispatch;
                            p.faults = faults;
                            p.faultPolicy = faultPolicy;
                            p.ratePerNode = rate;
                            if (n > 0 && scaleRateWithNodes)
                                p.cfg.arrivalRatePerSec = rate * n;
                            p.index = index++;
                            p.label = "e" + std::to_string(e) + "/r" +
                                      std::to_string(rate) + "/b" +
                                      std::to_string(b) + "/" +
                                      schedulerPolicyName(pol) + "/s" +
                                      std::to_string(seed);
                            if (n > 0)
                                p.label = "n" + std::to_string(n) + "/" +
                                          placementPolicyName(place) +
                                          "/" + p.label;
                            out.push_back(std::move(p));
                        }
                    }
                }
            }
        }
      }
    }
    return out;
}

namespace {

ClusterConfig
clusterConfig(const SweepPoint &point)
{
    ClusterConfig cluster;
    cluster.node = point.cfg;
    cluster.nodes = point.nodes;
    cluster.placement = point.placement;
    cluster.dispatch = point.dispatch;
    cluster.faults = point.faults;
    cluster.faultPolicy = point.faultPolicy;
    return cluster;
}

SweepPointResult
runPoint(const SweepPoint &point)
{
    SweepPointResult r;
    r.point = point;
    auto start = std::chrono::steady_clock::now();
    if (point.nodes > 0) {
        ClusterResult cr = ClusterSimulator(clusterConfig(point)).run();
        r.result.oom = cr.oom;
        r.result.stream = cr.stream;
        r.result.missRate = cr.missRate;
        r.loadImbalance = cr.loadImbalance;
        r.placedBytesTotal = cr.placedBytesTotal;
        r.expertReplicas = cr.expertReplicas;
    } else {
        ServingSimulator sim(point.cfg);
        r.result = sim.run();
    }
    r.wallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    r.eventsExecuted = r.result.stream.eventsExecuted;
    return r;
}

} // namespace

void
validateSweepPoint(const SweepPoint &point)
{
    if (point.nodes > 0)
        validateClusterConfig(clusterConfig(point));
    else
        validateServingConfig(point.cfg);
}

std::vector<SweepPointResult>
runSweep(const std::vector<SweepPoint> &points, int jobs)
{
    std::vector<SweepPointResult> results(points.size());
    if (points.empty())
        return results;

    if (jobs <= 1) {
        for (std::size_t i = 0; i < points.size(); ++i)
            results[i] = runPoint(points[i]);
        return results;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mu;

    auto worker = [&]() {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= points.size() || failed.load())
                return;
            try {
                results[i] = runPoint(points[i]);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error)
                    first_error = std::current_exception();
                failed.store(true);
                return;
            }
        }
    };

    int n = std::min<int>(jobs, static_cast<int>(points.size()));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();

    if (first_error)
        std::rethrow_exception(first_error);
    return results;
}

} // namespace sn40l::coe

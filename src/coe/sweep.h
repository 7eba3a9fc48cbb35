/**
 * @file
 * Parallel sweep runner for the CoE serving simulator.
 *
 * The paper's serving results (Table 5, Fig 12) and everything the
 * roadmap builds on them are sweep-shaped: many expert counts x
 * arrival rates x batch sizes x seeds. Every sweep point is an
 * independent deterministic simulation with its own EventQueue, RNGs,
 * and runtime state, so points shard trivially across a thread pool —
 * the only shared state is the process-wide cost-model memo, which is
 * thread-safe and value-deterministic. A parallel sweep therefore
 * produces bit-identical per-point results to a sequential one, in
 * grid order, regardless of completion order.
 */

#ifndef SN40L_COE_SWEEP_H
#define SN40L_COE_SWEEP_H

#include <cstdint>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "coe/serving.h"

namespace sn40l::coe {

/**
 * One grid point: a fully resolved serving configuration, optionally
 * lifted onto a cluster. nodes == 0 runs the single-node
 * ServingSimulator (the historical behaviour); nodes >= 1 runs a
 * ClusterSimulator with the given placement/dispatch and per-node
 * arrival rate cfg.arrivalRatePerSec (the grid scales offered load
 * with node count so points stay comparable).
 */
struct SweepPoint
{
    ServingConfig cfg;
    int nodes = 0; ///< 0: single-node path; >= 1: cluster path
    PlacementPolicy placement = PlacementPolicy::FullReplication;
    DispatchPolicy dispatch = DispatchPolicy::RoundRobin;
    /**
     * The grid's requested per-node arrival rate. cfg.arrivalRatePerSec
     * is the rate the simulator actually offers (scaled by the node
     * count when scaleRateWithNodes); reports should show this one so
     * points are comparable across node counts.
     */
    double ratePerNode = 0.0;
    int index = 0; ///< position in grid order
    std::string label;

    /**
     * Chaos layer for cluster points (nodes >= 1): the fault schedule
     * is parsed once and shared across every point (same pattern as
     * replayed traces), the policy knobs apply uniformly. Single-node
     * points ignore both.
     */
    std::shared_ptr<const std::vector<FaultEvent>> faults;
    FaultPolicyConfig faultPolicy;
};

/**
 * Cartesian sweep specification. Empty axes inherit the base config's
 * value; points are emitted in nested order with seeds innermost:
 * nodes > placements > experts > rates > batches > policies > seeds.
 * nodeCounts/placements empty keeps the classic single-node grid.
 */
struct SweepGrid
{
    ServingConfig base;
    std::vector<int> expertCounts;
    std::vector<double> arrivalRates;
    std::vector<int> batchSizes;
    std::vector<SchedulerPolicy> policies;
    std::vector<std::uint64_t> seeds;

    /** Cluster axes: empty nodeCounts = single-node points. */
    std::vector<int> nodeCounts;
    std::vector<PlacementPolicy> placements;
    DispatchPolicy dispatch = DispatchPolicy::RoundRobin;
    /** Per-node arrival rates are multiplied by the node count. */
    bool scaleRateWithNodes = true;

    /** Chaos layer, copied onto every cluster point (see SweepPoint). */
    std::shared_ptr<const std::vector<FaultEvent>> faults;
    FaultPolicyConfig faultPolicy;

    std::vector<SweepPoint> points() const;
};

struct SweepPointResult
{
    SweepPoint point;
    ServingResult result;
    double wallSeconds = 0.0;          ///< host time for this point
    std::uint64_t eventsExecuted = 0;  ///< simulator events it ran

    /** Cluster-only extras (nodes >= 1 points). */
    double loadImbalance = 0.0;
    double placedBytesTotal = 0.0;
    int expertReplicas = 0;
};

/**
 * Run the config validators a point's simulator would run
 * (validateServingConfig, or validateClusterConfig for a cluster
 * point) without simulating it.
 */
void validateSweepPoint(const SweepPoint &point);

/**
 * Run every point and return results in point order. @p jobs > 1
 * shards points across that many worker threads (each point runs on
 * one thread with its own EventQueue); @p jobs <= 1 runs sequentially.
 * The first exception raised by any point is rethrown after all
 * workers drain.
 */
std::vector<SweepPointResult> runSweep(const std::vector<SweepPoint> &points,
                                       int jobs);

} // namespace sn40l::coe

#endif // SN40L_COE_SWEEP_H

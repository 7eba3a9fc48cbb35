/**
 * @file
 * Unified JSON emission for serving/cluster metrics. Every consumer
 * that used to hand-roll `out << "{\"key\": ..."` — `sn40l_run sweep
 * --json`, the new `sn40l_run cluster --json`, and the cluster
 * controller's JSONL decision log — now funnels through these
 * emitters on top of util::JsonWriter, so field names and number
 * formatting cannot drift between reporters again.
 *
 * The field emitters (`*Fields`) write key/value pairs into an object
 * the caller has already opened, so envelopes compose: a sweep point
 * embeds streamMetricsJsonFields between its grid coordinates and its
 * per-point extras, the controller log pairs snapshotJsonFields with
 * an `action` tag, and `cluster --json` nests node objects inside the
 * result.
 */

#ifndef SN40L_COE_METRICS_IO_H
#define SN40L_COE_METRICS_IO_H

#include <iosfwd>
#include <vector>

#include "coe/cluster.h"
#include "coe/sweep.h"
#include "util/json.h"

namespace sn40l::coe {

/**
 * Core latency/throughput fields of a StreamMetrics, into an open
 * object: p50_s, p95_s, p99_s, mean_s, throughput_rps.
 */
void streamMetricsJsonFields(util::JsonWriter &w, const StreamMetrics &m);

/**
 * One windowed MetricsSnapshot, into an open object — the controller
 * log's line body (the controller appends its `action` tag).
 */
void snapshotJsonFields(util::JsonWriter &w, const MetricsSnapshot &snap);

/** One sweep point as a complete object (the sweep --json element). */
void sweepPointJson(util::JsonWriter &w, const SweepPointResult &r);

/**
 * The whole sweep --json document: a `points` array of
 * sweepPointJson objects (one per line, compact) plus the run
 * envelope (jobs, wall_s).
 */
void writeSweepJson(std::ostream &os,
                    const std::vector<SweepPointResult> &results, int jobs,
                    double wall_seconds);

/** One node's metrics as a complete object (cluster --json element). */
void clusterNodeJson(util::JsonWriter &w, const ClusterNodeMetrics &nm);

/**
 * The whole `cluster --json` document: config echo, cluster-wide
 * stream metrics, placement/provisioning totals, controller
 * accounting, and the per-node array.
 */
void writeClusterJson(std::ostream &os, const ClusterConfig &cfg,
                      const ClusterResult &r);

} // namespace sn40l::coe

#endif // SN40L_COE_METRICS_IO_H

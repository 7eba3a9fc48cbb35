/**
 * @file
 * Autoscaling ablation: does the reactive cluster controller actually
 * buy anything over static provisioning? Both corners replay the SAME
 * recorded diurnal trace (75% amplitude sinusoid over a Zipf-routed
 * CoE), so they compete on identical traffic:
 *
 *  - static: 4 nodes live for the whole run, the classic
 *    peak-provisioned cluster.
 *
 *  - reactive: the ClusterController scales between 1 and 4 nodes on
 *    windowed queue-depth/shed metrics, parking nodes through the
 *    diurnal trough and re-earning them on the ramp.
 *
 * The claim under test: reactive burns fewer node-hours while holding
 * the p95 tail and shedding no more than static. The process exits
 * non-zero if any axis of that corner flips, making it a CI gate for
 * the control plane (mirroring abl_expert_placement's corner check).
 *
 *   abl_autoscale [--smoke] [--requests N] [--json FILE]
 *
 * Emits BENCH_autoscale.json.
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "coe/workload.h"
#include "perf_common.h"
#include "util/json.h"
#include "util/table.h"

using namespace sn40l;

namespace {

int
run(int argc, char **argv)
{
    bench::BenchArgs args{60'000, "BENCH_autoscale.json"};
    tools::FlagParser parser(
        "abl_autoscale", "",
        "Autoscaling ablation: static against reactive provisioning on\n"
        "one diurnal trace. Exits 1 if its corner flips.");
    bench::addBenchFlags(parser, args, 12'000);
    if (parser.parse(argc, argv, std::cout))
        return 0;
    const int requests = args.requests;

    const int nodes = 4;
    const double total_rate = 24.0; // mean req/s across the cluster
    // Three diurnal cycles over the run, so the controller sees
    // several troughs to park through and ramps to recover on.
    const double duration = static_cast<double>(requests) / total_rate;
    const double period = duration / 3.0;

    coe::ServingConfig gen;
    gen.numExperts = 150;
    gen.batch = 8;
    gen.streamRequests = requests;
    gen.arrivalRatePerSec = total_rate;
    gen.routing = coe::RoutingDistribution::Zipf;
    gen.zipfS = 1.0;
    gen.scheduler = coe::SchedulerPolicy::ExpertAffinity;
    gen.seed = 7;
    gen.workload.shape.diurnalAmplitude = 0.75;
    gen.workload.shape.diurnalPeriodSeconds = period;

    std::cout << "Autoscaling ablation: " << requests
              << " requests over "
              << util::formatDouble(duration, 0)
              << " s, diurnal x1.75 peak / x0.25 trough ("
              << util::formatDouble(period, 0)
              << " s period), 150 experts Zipf(1.0), " << nodes
              << "-node replicate-hot cluster.\n"
              << "Both corners replay the same recorded trace.\n\n";

    std::shared_ptr<const std::vector<coe::TraceEntry>> trace =
        bench::recordTrace(gen);

    coe::ClusterConfig base;
    base.nodes = nodes;
    base.placement = coe::PlacementPolicy::ReplicateHotPartitionCold;
    base.hotExperts = 15;
    base.dispatch = coe::DispatchPolicy::LeastOutstanding;
    base.node = gen;
    base.node.workload.shape = coe::RateShape{}; // replay owns timing
    base.node.workload.traceEntries = trace;

    coe::ClusterConfig reactive_cfg = base;
    reactive_cfg.controller.policy =
        coe::ControllerPolicy::ReactiveThreshold;
    // Tuned so the tail holds: scale up as soon as queues form at
    // all (depth 0.5/node) and park nodes only when near-idle, so
    // the savings come from the diurnal trough, not from letting
    // queues sit at the up-threshold.
    reactive_cfg.controller.tickSeconds = 0.25;
    reactive_cfg.controller.minNodes = 1;
    reactive_cfg.controller.scaleUpQueueDepth = 0.5;
    reactive_cfg.controller.scaleDownQueueDepth = 0.05;
    reactive_cfg.controller.cooldownTicks = 8;

    coe::ClusterResult st = coe::ClusterSimulator(base).run();
    coe::ClusterResult re = coe::ClusterSimulator(reactive_cfg).run();
    if (st.oom || re.oom ||
        st.stream.completed + st.stream.shed != requests ||
        re.stream.completed + re.stream.shed != requests) {
        std::cerr << "abl_autoscale: a corner did not complete\n";
        return 1;
    }

    util::Table table({"Provisioning", "Node-hours", "p50", "p95",
                       "p99", "Shed", "Throughput", "Ticks",
                       "Actions"});
    auto addRow = [&table](const char *name,
                           const coe::ClusterResult &r) {
        const coe::StreamMetrics &m = r.stream;
        table.addRow({name, util::formatDouble(r.nodeHours, 3),
                      util::formatSeconds(m.p50LatencySeconds),
                      util::formatSeconds(m.p95LatencySeconds),
                      util::formatSeconds(m.p99LatencySeconds),
                      std::to_string(m.shed),
                      util::formatDouble(m.throughputRequestsPerSec, 1) +
                          " req/s",
                      std::to_string(r.controllerTicks),
                      std::to_string(r.controllerActions)});
    };
    addRow("static x4", st);
    addRow("reactive 1..4", re);
    table.print(std::cout);

    double saved_pct = st.nodeHours > 0.0
        ? (1.0 - re.nodeHours / st.nodeHours) * 100.0
        : 0.0;
    double p95_ratio = st.stream.p95LatencySeconds > 0.0
        ? re.stream.p95LatencySeconds / st.stream.p95LatencySeconds
        : 0.0;
    std::cout << "\nReactive used "
              << util::formatDouble(saved_pct, 1)
              << "% fewer node-hours at "
              << util::formatDouble(p95_ratio * 100.0, 1)
              << "% of static's p95.\n";

    // The corner under test: cheaper provisioning, tail and shed no
    // worse (5% p95 tolerance absorbs the scale-up transients).
    bool cheaper = re.nodeHours < st.nodeHours;
    bool tail_ok = re.stream.p95LatencySeconds <=
        1.05 * st.stream.p95LatencySeconds;
    bool shed_ok = re.stream.shed <= st.stream.shed;
    bool wins = cheaper && tail_ok && shed_ok;
    std::cout << (wins
                      ? "reactive dominates the corner: fewer "
                        "node-hours, tail and shed held.\n"
                      : "WARNING: the autoscaling corner flipped "
                        "(cheaper=" + std::to_string(cheaper) +
                            " tail_ok=" + std::to_string(tail_ok) +
                            " shed_ok=" + std::to_string(shed_ok) +
                            ").\n");

    bench::writeBenchJson("abl_autoscale", args, [&](util::JsonWriter &w) {
        w.field("arrival_rate", total_rate)
            .field("diurnal_amplitude", 0.75)
            .field("diurnal_period_s", period);
        auto corner = [&w](const char *name,
                           const coe::ClusterResult &r) {
            w.key(name)
                .beginObject()
                .field("node_hours", r.nodeHours)
                .field("p50_s", r.stream.p50LatencySeconds)
                .field("p95_s", r.stream.p95LatencySeconds)
                .field("p99_s", r.stream.p99LatencySeconds)
                .field("shed", r.stream.shed)
                .field("completed", r.stream.completed)
                .field("controller_ticks", r.controllerTicks)
                .field("controller_actions", r.controllerActions)
                .field("events", r.stream.eventsExecuted)
                .endObject();
        };
        corner("static", st);
        corner("reactive", re);
        w.field("node_hours_saved_pct", saved_pct)
            .field("p95_ratio", p95_ratio)
            .field("corner_holds", wins);
    });
    return wins ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runMain(run, argc, argv);
}

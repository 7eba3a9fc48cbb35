/**
 * @file
 * Simulation-engine performance harness (not a paper figure): measures
 * how fast the simulator itself runs, so engine regressions are caught
 * the way model regressions are.
 *
 * Three measurements:
 *
 *  - core: a raw EventQueue schedule/fire/cancel loop (no model code),
 *    isolating the slab-pooled event core.
 *
 *  - cold set-up: the median of 5 ServingSimulator constructions with
 *    the process-wide cost memo cleared first, as a CLI run pays it
 *    (graph build, compile and machine walk of four phase shapes).
 *    Reported only, never gated: a wall-clock ceiling loose enough for
 *    shared CI runners would not catch even a 3x regression.
 *
 *  - serving: a full `serve`-equivalent EventDriven run (Zipf routing,
 *    Poisson arrivals, live DMA memory system), reporting simulator
 *    events/sec, requests/sec, and peak RSS.
 *
 *  - prefetch: the same stream over a 2000-adapter LoRA zoo with
 *    speculative prefetch on (depth 8) and HBM derated to 0.6 of its
 *    platform bandwidth, counting events only. It is the one path
 *    where a batch's coe.batch_done can fire early and re-arm: small
 *    adapters leave free region blocks, so prefetches issue mid-batch
 *    all run long, and HBM-bound prompts are delayed by them.
 *
 * Emits BENCH_serving.json. With --floor FILE, exits non-zero if
 * serving events/sec falls below 80% of the checked-in floor, if
 * either run executes more events per request than the floor's exact
 * ceiling for it, or if the prefetch pass re-arms no batch
 * (deterministic, so checked only at the floor's own request
 * count) — the CI regression gate (the wall-clock floor is
 * set far enough below a healthy run to absorb shared-runner noise;
 * see bench/perf_serving_floor.json).
 *
 *   perf_serving [--smoke] [--requests N] [--json FILE] [--floor FILE]
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>

#include "coe/cost_cache.h"
#include "coe/serving.h"
#include "perf_common.h"
#include "sim/event_queue.h"

using namespace sn40l;
using bench::jsonNumber;
using bench::peakRssBytes;
using bench::wallSeconds;

namespace {

/**
 * Raw event-core throughput: K concurrent self-rescheduling chains
 * plus one cancelled event per fire, the schedule/fire/cancel mix the
 * serving loop produces.
 */
double
coreEventsPerSec(std::uint64_t events)
{
    sim::EventQueue eq;
    constexpr int kChains = 64;
    std::uint64_t fired = 0;
    std::function<void(int)> chain = [&](int c) {
        ++fired;
        if (eq.executedCount() >= events)
            return;
        auto doomed = eq.scheduleIn(2, []() {}, "perf.cancelled");
        doomed.cancel();
        eq.scheduleIn(1, [&chain, c]() { chain(c); }, "perf.chain");
    };
    auto start = std::chrono::steady_clock::now();
    for (int c = 0; c < kChains; ++c)
        eq.scheduleIn(1, [&chain, c]() { chain(c); }, "perf.chain");
    eq.run();
    double wall = wallSeconds(start);
    return wall > 0.0 ? static_cast<double>(fired) / wall : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    int requests = 1'000'000;
    bool requests_set = false;
    std::string json_path = "BENCH_serving.json";
    std::string floor_path;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "perf_serving: " << arg << " expects a value\n";
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--smoke") smoke = true;
        else if (arg == "--requests") {
            requests = std::stoi(next());
            requests_set = true;
        }
        else if (arg == "--json") json_path = next();
        else if (arg == "--floor") floor_path = next();
        else {
            std::cerr << "usage: perf_serving [--smoke] [--requests N] "
                      << "[--json FILE] [--floor FILE]\n";
            return 1;
        }
    }
    if (smoke && !requests_set)
        requests = 20'000;

    // ---- raw event core -----------------------------------------
    std::uint64_t core_events = smoke ? 500'000 : 5'000'000;
    double core_eps = coreEventsPerSec(core_events);
    std::cout << "event core: "
              << static_cast<std::uint64_t>(core_eps)
              << " events/s (schedule/fire/cancel mix)\n";

    // ---- full serving run ---------------------------------------
    // Arrival rate near saturation keeps a live queue without letting
    // it grow unbounded; Zipf routing exercises the LRU + DMA path.
    coe::ServingConfig cfg;
    cfg.mode = coe::ServingMode::EventDriven;
    cfg.batch = 8;
    cfg.streamRequests = requests;
    cfg.arrivalRatePerSec = 16.0;
    cfg.routing = coe::RoutingDistribution::Zipf;
    cfg.zipfS = 1.0;
    cfg.scheduler = coe::SchedulerPolicy::ExpertAffinity;
    cfg.seed = 1;

    std::array<double, 5> cold{};
    for (double &c : cold) {
        coe::CostModelCache::instance().clear();
        auto t0 = std::chrono::steady_clock::now();
        coe::ServingSimulator cold_sim(cfg);
        c = wallSeconds(t0);
    }
    std::sort(cold.begin(), cold.end());
    double cold_setup = cold[cold.size() / 2];
    std::cout << "cold set-up: " << cold_setup
              << " s (median of " << cold.size()
              << " ServingSimulator constructions, cost memo cleared)\n";

    coe::ServingSimulator sim(cfg);
    auto start = std::chrono::steady_clock::now();
    coe::ServingResult result = sim.run();
    double wall = wallSeconds(start);

    if (result.oom || result.stream.completed != requests) {
        std::cerr << "perf_serving: serving run did not complete\n";
        return 1;
    }

    double events_per_sec = wall > 0.0
        ? static_cast<double>(result.stream.eventsExecuted) / wall
        : 0.0;
    double requests_per_sec =
        wall > 0.0 ? static_cast<double>(requests) / wall : 0.0;
    double events_per_request =
        static_cast<double>(result.stream.eventsExecuted) / requests;
    std::int64_t rss = peakRssBytes();

    coe::ServingConfig prefetch_cfg = cfg;
    prefetch_cfg.numExperts = 2000;
    prefetch_cfg.zoo.enabled = true;
    prefetch_cfg.zoo.rank = 16;
    prefetch_cfg.predictivePrefetch = true;
    prefetch_cfg.prefetchDepth = 8;
    mem::MemorySystemConfig derated = coe::platformMemoryConfig(cfg);
    derated.hbm.perChannelBandwidth *= 0.6;
    prefetch_cfg.memoryOverride = derated;
    coe::ServingSimulator prefetch_sim(prefetch_cfg);
    coe::ServingResult prefetch_result = prefetch_sim.run();
    const coe::StreamMetrics &pm = prefetch_result.stream;
    if (prefetch_result.oom || pm.completed != requests) {
        std::cerr << "perf_serving: prefetch run did not complete\n";
        return 1;
    }
    double prefetch_events_per_request =
        static_cast<double>(pm.eventsExecuted) / requests;
    // Every event beyond one per arrival, router decision, batch
    // execution and DMA load is a coe.batch_done that fired early.
    auto prefetch_loads = static_cast<std::int64_t>(
        prefetch_sim.stats().get("dma_loads_issued"));
    std::int64_t prefetch_rearms =
        static_cast<std::int64_t>(pm.eventsExecuted) -
        (requests + 2 * pm.batches + prefetch_loads);

    std::cout << "serving: " << requests << " requests, "
              << result.stream.eventsExecuted << " events in " << wall
              << " s\n"
              << "  " << events_per_request << " events/request, "
              << static_cast<std::uint64_t>(events_per_sec)
              << " events/s, "
              << static_cast<std::uint64_t>(requests_per_sec)
              << " requests/s, peak RSS " << rss / (1 << 20) << " MiB\n"
              << "prefetch: " << pm.eventsExecuted << " events, "
              << prefetch_events_per_request << " events/request, "
              << pm.prefetchesIssued << " prefetches, " << prefetch_rearms
              << " batch re-arms\n";

    std::ofstream out(json_path);
    out << "{\n"
        << "  \"bench\": \"perf_serving\",\n"
        << "  \"git_commit\": \"" << bench::gitCommitHash() << "\",\n"
        << "  \"timestamp_utc\": \"" << bench::isoTimestampUtc()
        << "\",\n"
        << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
        << "  \"requests\": " << requests << ",\n"
        << "  \"wall_seconds\": " << wall << ",\n"
        << "  \"events_executed\": " << result.stream.eventsExecuted
        << ",\n"
        << "  \"events_per_request\": " << events_per_request << ",\n"
        << "  \"prefetch_events_per_request\": "
        << prefetch_events_per_request << ",\n"
        << "  \"prefetch_batch_rearms\": " << prefetch_rearms << ",\n"
        << "  \"events_per_sec\": " << events_per_sec << ",\n"
        << "  \"requests_per_sec\": " << requests_per_sec << ",\n"
        << "  \"core_events_per_sec\": " << core_eps << ",\n"
        << "  \"cold_setup_s\": " << cold_setup << ",\n"
        << "  \"peak_rss_bytes\": " << rss << "\n"
        << "}\n";
    std::cout << "wrote " << json_path << "\n";

    if (!floor_path.empty()) {
        double floor =
            jsonNumber("perf_serving", floor_path, "events_per_sec");
        double gate = 0.8 * floor; // fail on >20% regression vs floor
        if (events_per_sec < gate) {
            std::cerr << "perf_serving: REGRESSION: " << events_per_sec
                      << " events/s < gate " << gate << " (floor " << floor
                      << " from " << floor_path << ")\n";
            return 1;
        }
        std::cout << "floor check passed: " << events_per_sec
                  << " events/s >= gate " << gate << "\n";
        if (requests == jsonNumber("perf_serving", floor_path,
                                   "requests")) {
            for (auto [key, measured] :
                 {std::pair{"events_per_request", events_per_request},
                  std::pair{"prefetch_events_per_request",
                            prefetch_events_per_request}}) {
                double ceiling = jsonNumber("perf_serving", floor_path, key);
                if (measured > ceiling) {
                    std::cerr << "perf_serving: EVENT REGRESSION: " << key
                              << " " << measured << " > ceiling "
                              << ceiling << " (from " << floor_path
                              << ")\n";
                    return 1;
                }
                std::cout << key << " check passed: " << measured
                          << " <= ceiling " << ceiling << "\n";
            }
            if (prefetch_rearms <= 0) {
                std::cerr << "perf_serving: the prefetch pass re-armed "
                             "no batch; it no longer exercises the "
                             "early coe.batch_done path\n";
                return 1;
            }
            std::cout << "prefetch pass re-armed " << prefetch_rearms
                      << " batches\n";
        } else {
            std::cout << "events/request checks skipped: the ceilings "
                         "are pinned at the floor's requests\n";
        }
    }
    return 0;
}

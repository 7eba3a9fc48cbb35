/**
 * @file
 * Ablation A9: full experts vs LoRA adapters (Section VIII-4), now in
 * two parts.
 *
 * Part 1 is the static capacity table: bytes per expert, DDR->HBM
 * switch time, and experts-per-node for full fine-tuned experts vs
 * LoRA adapters at several ranks. The usable-DDR figure subtracts the
 * 256 GB host/OS reservation and is clamped at zero; a node whose DDR
 * cannot even cover the reservation is a configuration error and
 * fails fast instead of printing negative capacities.
 *
 * Part 2 serves a live PEFT expert zoo through the EventDriven
 * engine: thousands of rank-16 adapters share pinned base weights,
 * every adapter miss is a real (tiny) DMA transfer, and the HBM
 * expert region is swept to show the zoo hit rate rising with region
 * size. batch 1 keeps the adapter reference string identical across
 * points, so LRU's stack property makes the ramp deterministic — the
 * process exits non-zero if the hit rate ever falls as the region
 * grows, making this a CI gate for the zoo streaming path.
 *
 *   abl_peft_experts [--smoke] [--requests N] [--json FILE]
 *
 * Emits BENCH_peft_experts.json.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "arch/chip_config.h"
#include "coe/cluster.h"
#include "models/llm_config.h"
#include "perf_common.h"
#include "sim/log.h"
#include "util/json.h"
#include "util/table.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

struct ZooPoint
{
    int slots = 0;
    double hitRate = 0.0;
    double p95 = 0.0;
    double p95Stall = 0.0;
    double dmaLoads = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    int requests = 2'000;
    bool requests_set = false;
    std::string json_path = "BENCH_peft_experts.json";

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "abl_peft_experts: " << arg
                          << " expects a value\n";
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
        else {
            std::cerr << "usage: abl_peft_experts [--smoke] "
                      << "[--requests N] [--json FILE]\n";
            return 1;
        }
    }
    if (smoke && !requests_set)
        requests = 400;

    // ------------------------------------------------------------
    // Part 1: static capacity table.
    models::LlmConfig base = models::LlmConfig::llama2_7b();
    arch::NodeConfig node = arch::NodeConfig::sn40lNode(8);
    double switch_rate = node.ddrToHbmBandwidth();
    const double host_reserve = 256e9;
    double total_ddr = static_cast<double>(node.totalDdrBytes());
    if (host_reserve > total_ddr)
        sim::fatal("abl_peft_experts: the 256 GB host reservation "
                   "exceeds node DDR — no capacity left for experts");
    double usable_ddr = std::max(0.0, total_ddr - host_reserve);

    std::cout << "Ablation A9: full experts vs LoRA adapters "
              << "(one SN40L node)\n\n";

    util::Table table({"Expert granularity", "Bytes/expert",
                       "Switch time", "Experts per node (DDR)",
                       "Quality caveat"});

    double full = base.weightBytes();
    table.addRow({"Full fine-tuned 7B", util::formatBytes(full),
                  util::formatSeconds(full / switch_rate),
                  std::to_string(static_cast<long>(usable_ddr / full)),
                  "reference"});

    for (int rank : {8, 16, 64}) {
        double bytes = loraAdapterBytes(base, rank);
        table.addRow({"LoRA rank-" + std::to_string(rank),
                      util::formatBytes(bytes),
                      util::formatSeconds(bytes / switch_rate),
                      std::to_string(
                          static_cast<long>(usable_ddr / bytes)),
                      "below SFT on several tasks"});
    }
    table.print(std::cout);

    // ------------------------------------------------------------
    // Part 2: live zoo sweep. 2000 rank-16 adapters behind pinned
    // base weights, Zipf-routed, each miss a real DMA transfer.
    const int adapters = 2'000;
    const int rank = 16;
    double adapter_bytes = loraAdapterBytes(base, rank);

    std::cout << "\nLive zoo stream: " << adapters << " rank-" << rank
              << " adapters ("
              << util::formatBytes(adapter_bytes)
              << " each) sharing pinned base\nweights, Zipf(1.0) "
              << "routing, batch 1, " << requests
              << " requests. The HBM region\nbounds how many adapters "
              << "stay resident; misses stream over DMA.\n\n";

    std::vector<int> slot_sweep = {16, 64, 256, 1024, adapters};
    std::vector<ZooPoint> pts;
    util::Table zoo_table({"Adapter slots", "Hit rate", "p95",
                           "Miss-stall p95", "DMA loads"});
    for (int slots : slot_sweep) {
        ServingConfig cfg;
        cfg.platform = Platform::Sn40l;
        cfg.numExperts = adapters;
        cfg.zoo.enabled = true;
        cfg.zoo.rank = rank;
        cfg.batch = 1;
        cfg.routing = RoutingDistribution::Zipf;
        cfg.zipfS = 1.0;
        cfg.streamRequests = requests;
        cfg.arrivalRatePerSec = 16.0;
        cfg.seed = 7;
        // The engine reserves the pinned base trunk out of the
        // region; what is left holds `slots` adapters.
        cfg.expertRegionBytes = static_cast<std::int64_t>(
            base.weightBytes() + slots * adapter_bytes * 1.001);

        ServingSimulator sim(cfg);
        ServingResult r = sim.run();
        if (r.oom || r.stream.completed != requests) {
            std::cerr << "abl_peft_experts: zoo point slots=" << slots
                      << " did not complete\n";
            return 1;
        }
        ZooPoint p;
        p.slots = slots;
        p.hitRate = 1.0 - r.missRate;
        p.p95 = r.stream.p95LatencySeconds;
        p.p95Stall = r.stream.p95SwitchStallSeconds;
        p.dmaLoads = sim.stats().get("dma_loads_issued");
        pts.push_back(p);
        zoo_table.addRow({std::to_string(slots),
                          util::formatDouble(p.hitRate * 100, 1) + "%",
                          util::formatSeconds(p.p95),
                          util::formatSeconds(p.p95Stall),
                          util::formatDouble(p.dmaLoads, 0)});
    }
    zoo_table.print(std::cout);

    // The corner under test: a bigger region never hits less (LRU is
    // a stack algorithm and batch 1 fixes the reference string), and
    // the full-zoo region misses only on cold starts.
    bool monotone = true;
    for (std::size_t i = 1; i < pts.size(); ++i) {
        if (pts[i].hitRate < pts[i - 1].hitRate)
            monotone = false;
    }
    bool full_region_hot = pts.back().hitRate >= pts.front().hitRate &&
        pts.back().dmaLoads <= static_cast<double>(adapters);
    bool holds = monotone && full_region_hot;

    std::cout << "\n"
              << (holds
                      ? "zoo corner holds: hit rate rises "
                        "monotonically with the adapter region,\nand "
                        "a full-zoo region pays only cold-start "
                        "loads.\n"
                      : "WARNING: the zoo corner flipped (monotone=" +
                            std::to_string(monotone) +
                            " full_region_hot=" +
                            std::to_string(full_region_hot) + ").\n");

    std::cout << "\nThe paper's Section VIII-4: PEFT does not reach "
              << "supervised fine-tuning\nquality in several scenarios, "
              << "which is why Samba-CoE hosts full experts —\nand why "
              << "the DDR tier (not adapter tricks) is what makes that "
              << "affordable.\n";

    std::ofstream out(json_path);
    {
        util::JsonWriter w(out, /*pretty=*/true);
        w.beginObject()
            .field("bench", "abl_peft_experts")
            .field("commit", bench::gitCommitHash())
            .field("timestamp_utc", bench::isoTimestampUtc())
            .field("mode", smoke ? "smoke" : "full")
            .field("requests", requests)
            .field("adapters", adapters)
            .field("rank", rank)
            .field("adapter_bytes", adapter_bytes)
            .field("full_expert_bytes", full);
        w.key("points").beginArray();
        for (const ZooPoint &p : pts) {
            w.beginObject()
                .field("slots", p.slots)
                .field("hit_rate", p.hitRate)
                .field("p95_s", p.p95)
                .field("p95_stall_s", p.p95Stall)
                .field("dma_loads", p.dmaLoads)
                .endObject();
        }
        w.endArray();
        w.field("monotone", monotone)
            .field("full_region_hot", full_region_hot)
            .field("corner_holds", holds)
            .endObject();
        out << "\n";
    }
    std::cout << "wrote " << json_path << "\n";
    return holds ? 0 : 1;
}

/**
 * @file
 * Heterogeneous expert zoo: CoEs are not limited to one base model
 * (Section II). This example mixes 7B and 70B experts, routes with a
 * Zipf distribution, and watches the LRU expert cache and the
 * read-only copy-back optimization at work.
 *
 *   $ ./build/examples/expert_zoo
 */

#include <iostream>

#include "arch/chip_config.h"
#include "coe/coe_runtime.h"
#include "coe/router.h"
#include "coe/serving.h"
#include "models/llm_config.h"
#include "util/table.h"

using namespace sn40l;
using namespace sn40l::coe;

int
main()
{
    // ---- Build a mixed zoo: 60 x 7B experts + 4 x 70B heavyweights.
    ExpertZoo zoo;
    for (int i = 0; i < 60; ++i) {
        ExpertModel e;
        e.name = "specialist-7b-" + std::to_string(i);
        e.domain = i % 2 ? "code" : "math";
        e.config = models::LlmConfig::llama2_7b();
        e.bytes = e.config.weightBytes();
        zoo.add(e);
    }
    for (int i = 0; i < 4; ++i) {
        ExpertModel e;
        e.name = "generalist-70b-" + std::to_string(i);
        e.domain = "general";
        e.config = models::LlmConfig::llama2_70b();
        e.bytes = e.config.weightBytes();
        zoo.add(e);
    }

    std::cout << "Zoo: " << zoo.size() << " experts, "
              << util::formatBytes(zoo.totalBytes())
              << " total (largest "
              << util::formatBytes(zoo.maxExpertBytes()) << ")\n\n";

    // ---- An SN40L node's HBM expert region -------------------------
    arch::NodeConfig node = arch::NodeConfig::sn40lNode(8);
    std::int64_t region =
        node.totalHbmBytes() - static_cast<std::int64_t>(30e9);
    CoeRuntime runtime(zoo, region);

    // ---- Route 5000 prompts with realistic (Zipf) locality ---------
    Router router(zoo.size(), RoutingDistribution::Zipf, 11, 1.1);
    double bytes_moved = 0.0;
    int misses = 0;
    const int prompts = 5000;
    for (int i = 0; i < prompts; ++i) {
        Activation act = runtime.activate(router.route());
        bytes_moved += act.bytesToLoad + act.bytesToWriteBack;
        if (!act.hit)
            ++misses;
    }

    util::Table table({"Metric", "Value"});
    table.addRow({"HBM expert region", util::formatBytes(
                      static_cast<double>(region))});
    table.addRow({"Prompts served", std::to_string(prompts)});
    table.addRow({"Cache miss rate",
                  util::formatDouble(100.0 * misses / prompts, 1) + "%"});
    table.addRow({"Experts resident at end",
                  std::to_string(runtime.residentCount())});
    table.addRow({"Bytes moved DDR->HBM",
                  util::formatBytes(bytes_moved)});
    table.addRow({"Copy-backs skipped (read-only weights)",
                  util::formatDouble(
                      runtime.stats().get("copyback_skipped"), 0)});
    table.addRow({"Evictions", util::formatDouble(
                      runtime.stats().get("evictions"), 0)});
    table.print(std::cout);

    // The idle DDR->HBM copy rate of the SN40L serving platform.
    double switch_rate = platformMemoryConfig(ServingConfig{}).copyBandwidth();
    std::cout << "\nAt " << util::formatBandwidth(switch_rate)
              << " node DDR->HBM, the moved bytes cost "
              << util::formatSeconds(bytes_moved / switch_rate)
              << " of switching across all " << prompts
              << " prompts.\n";
    return 0;
}

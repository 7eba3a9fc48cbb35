#include "coe/serving.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "baseline/gpu_executor.h"
#include "coe/cost_cache.h"
#include "coe/serving_engine.h"
#include "coe/workload.h"
#include "runtime/runner.h"
#include "runtime/spec_decode.h"
#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/ticks.h"

namespace sn40l::coe {

const char *
platformName(Platform platform)
{
    switch (platform) {
      case Platform::Sn40l: return "SN40L-Node";
      case Platform::DgxA100: return "DGX-A100";
      case Platform::DgxH100: return "DGX-H100";
    }
    sim::panic("platformName: unknown platform");
}

const char *
schedulerPolicyName(SchedulerPolicy policy)
{
    switch (policy) {
      case SchedulerPolicy::Fifo: return "fifo";
      case SchedulerPolicy::ExpertAffinity: return "affinity";
    }
    sim::panic("schedulerPolicyName: unknown policy");
}

SchedulerPolicy
schedulerPolicyFromName(const std::string &name)
{
    if (name == "fifo")
        return SchedulerPolicy::Fifo;
    if (name == "affinity" || name == "expert-affinity")
        return SchedulerPolicy::ExpertAffinity;
    sim::fatal("unknown scheduler policy '" + name +
               "' (expected fifo or affinity)");
}

void
validateServingConfig(const ServingConfig &cfg)
{
    if (cfg.numExperts <= 0)
        sim::fatal(std::string("ServingConfig: numExperts (") +
                   (cfg.zoo.enabled ? "--zoo-adapters" : "--experts") +
                   ") must be positive, got " +
                   std::to_string(cfg.numExperts));
    if (cfg.batch <= 0)
        sim::fatal("ServingConfig: batch (--batch) must be positive, got " +
                   std::to_string(cfg.batch));
    // Written so NaN fails too: every comparison with NaN is false.
    if (cfg.routing == RoutingDistribution::Zipf &&
        !(std::isfinite(cfg.zipfS) && cfg.zipfS > 0.0))
        sim::fatal("ServingConfig: zipfS (--zipf-s) must be finite and "
                   "positive, got " + std::to_string(cfg.zipfS));
    if (cfg.outputTokens < 0)
        sim::fatal("ServingConfig: outputTokens (--tokens) must be "
                   "non-negative, got " +
                   std::to_string(cfg.outputTokens));
    if (cfg.streamRequests <= 0)
        sim::fatal("ServingConfig: streamRequests (--requests) must be "
                   "positive, got " +
                   std::to_string(cfg.streamRequests));
    if (cfg.arrival == ArrivalProcess::Poisson &&
        !(std::isfinite(cfg.arrivalRatePerSec) &&
          cfg.arrivalRatePerSec > 0.0))
        sim::fatal("ServingConfig: arrivalRatePerSec (--arrival-rate) "
                   "must be finite and positive, got " +
                   std::to_string(cfg.arrivalRatePerSec));
    if (cfg.arrival == ArrivalProcess::Poisson)
        sim::requireTickSeconds(1.0 / cfg.arrivalRatePerSec,
                                "ServingConfig: mean arrival gap "
                                "1/arrivalRatePerSec (--arrival-rate)");
    if (cfg.arrival == ArrivalProcess::ClosedLoop && cfg.clients <= 0)
        sim::fatal("ServingConfig: clients (--clients) must be "
                   "positive");
    sim::requireTickSeconds(cfg.thinkSeconds,
                            "ServingConfig: thinkSeconds (--think)");
    if (cfg.dmaEngines <= 0)
        sim::fatal("ServingConfig: dmaEngines (--dma-engines) must be "
                   "at least 1, got " + std::to_string(cfg.dmaEngines));
    if (cfg.prefetchDepth < 0)
        sim::fatal("ServingConfig: prefetchDepth (--prefetch-depth) "
                   "must be non-negative");
    if (cfg.prefetchWindow < 0)
        sim::fatal("ServingConfig: prefetchWindow (--prefetch-window) "
                   "must be non-negative");
    if (cfg.expertRegionBytes < 0)
        sim::fatal("ServingConfig: expertRegionBytes (--expert-region-gb) "
                   "must be non-negative");
    if (cfg.specDecode.enabled) {
        if (cfg.specDecode.gamma < 0)
            sim::fatal("ServingConfig: specDecode.gamma (--spec-gamma) "
                       "must be non-negative");
        if (!(cfg.specDecode.acceptRate >= 0.0 &&
              cfg.specDecode.acceptRate <= 1.0))
            sim::fatal("ServingConfig: specDecode.acceptRate "
                       "(--spec-accept) must be in [0, 1]");
        if (!(cfg.specDecode.draftRatio > 0.0 &&
              cfg.specDecode.draftRatio < 1.0))
            sim::fatal("ServingConfig: specDecode.draftRatio "
                       "(--spec-draft-ratio) must be in (0, 1)");
    }
    if (cfg.zoo.enabled) {
        if (cfg.zoo.rank <= 0)
            sim::fatal("ServingConfig: zoo.rank (--zoo-rank) must be at "
                       "least 1");
        if (!(std::isfinite(cfg.zoo.churnEverySeconds) &&
              cfg.zoo.churnEverySeconds >= 0.0))
            sim::fatal("ServingConfig: zoo.churnEverySeconds (--zoo-churn) "
                       "must be finite and non-negative, got " +
                       std::to_string(cfg.zoo.churnEverySeconds));
        if (cfg.zoo.dmaSetupSeconds < 0.0)
            sim::fatal("ServingConfig: negative zoo DMA setup time");
    }
    validateWorkloadConfig(cfg);
}

double
loraAdapterBytes(const models::LlmConfig &base, int rank)
{
    if (rank <= 0)
        sim::fatal("loraAdapterBytes: non-positive rank");
    // Per layer: LoRA A/B pairs on the four attention projections
    // (q, k, v, o), each d_model x rank, at 2 bytes/param (BF16).
    double per_layer = 4.0 * (2.0 * rank * base.dModel) * 2.0;
    return per_layer * base.numLayers;
}

ExpertZoo
buildServingZoo(const ServingConfig &cfg)
{
    if (!cfg.zoo.enabled)
        return ExpertZoo::uniform(cfg.numExperts, cfg.expertBase);
    double adapter = loraAdapterBytes(cfg.expertBase, cfg.zoo.rank);
    ExpertZoo zoo;
    zoo.reserve(cfg.numExperts);
    for (int i = 0; i < cfg.numExperts; ++i) {
        ExpertModel m;
        m.id = i;
        m.name = "lora_" + std::to_string(i);
        m.domain = "peft";
        m.config = cfg.expertBase;
        m.bytes = adapter;
        m.mutableBytes = 0.0;
        zoo.add(std::move(m));
    }
    return zoo;
}

PhaseCosts
computePhaseCosts(const ServingConfig &cfg)
{
    using models::Phase;
    using models::WorkloadSpec;

    PhaseCosts costs;

    WorkloadSpec prefill;
    prefill.model = cfg.expertBase;
    prefill.phase = Phase::Prefill;
    prefill.batch = 1;
    prefill.seqLen = cfg.promptLen;
    prefill.tensorParallel = cfg.tensorParallel;

    WorkloadSpec decode = prefill;
    decode.phase = Phase::Decode;

    // The router is a 7B specialist: one batched prefill plus one
    // decode step to emit the expert choice.
    WorkloadSpec router_prefill = prefill;
    router_prefill.batch = cfg.batch;
    WorkloadSpec router_decode = decode;
    router_decode.batch = cfg.batch;

    double expert_bytes = cfg.expertBase.weightBytes();

    if (cfg.platform == Platform::Sn40l) {
        arch::NodeConfig node =
            arch::NodeConfig::sn40lNode(cfg.tensorParallel);

        // Priced through the process-wide memo: a sweep re-prices the
        // same four graph shapes for every (seed, rate, experts)
        // point, and graph build + compile + machine walk is the
        // expensive part. Cache misses build the graph lazily.
        auto seconds = [&](const WorkloadSpec &spec) {
            return CostModelCache::instance().seconds(
                workloadCostKey("sn40l", spec), [&]() {
                    graph::DataflowGraph g = buildTransformer(spec);
                    return runtime::runWorkload(g, node,
                                                cfg.tensorParallel,
                                                runtime::RunConfig::FusedHO)
                        .seconds();
                });
        };
        costs.prefillSeconds = seconds(prefill);
        costs.decodeSecondsPerToken = seconds(decode);
        costs.routerSeconds =
            seconds(router_prefill) + seconds(router_decode);

        sim::EventQueue eq;
        runtime::RduNode machine(eq, node);
        costs.switchSeconds =
            sim::toSeconds(machine.estimateDdrToHbm(expert_bytes));

        // HBM region for experts: node HBM minus the router's weights
        // and a KV/activation reserve (Fig 9's "Router Region").
        double reserve = cfg.expertBase.weightBytes() + 16e9;
        costs.expertRegionBytes = static_cast<std::int64_t>(
            static_cast<double>(node.totalHbmBytes()) - reserve);

        // Backing capacity: node DDR minus a runtime reserve.
        costs.capacityBytes =
            static_cast<double>(node.totalDdrBytes()) - 256e9;
    } else {
        baseline::DgxConfig dgx = cfg.platform == Platform::DgxA100
            ? baseline::DgxConfig::dgxA100()
            : baseline::DgxConfig::dgxH100();
        baseline::GpuExecutor executor(dgx);

        // The process-wide cost memo prices each shape once per
        // platform, graph build included.
        auto seconds = [&](const WorkloadSpec &spec) {
            return CostModelCache::instance().seconds(
                workloadCostKey(platformName(cfg.platform), spec), [&]() {
                    return executor.run(buildTransformer(spec)).seconds;
                });
        };
        costs.prefillSeconds = seconds(prefill);
        costs.decodeSecondsPerToken = seconds(decode);
        costs.routerSeconds = seconds(router_prefill) + seconds(router_decode);

        // Expert switch: host DRAM -> GPU HBM over the host link.
        costs.switchSeconds = expert_bytes / dgx.hostToGpuBandwidth;
        costs.expertRegionBytes = dgx.usableHbmBytes();
        costs.capacityBytes = static_cast<double>(dgx.expertCapacityBytes());
    }
    if (cfg.expertRegionBytes > 0)
        costs.expertRegionBytes = cfg.expertRegionBytes;
    return costs;
}

mem::MemorySystemConfig
platformMemoryConfig(const ServingConfig &cfg)
{
    if (cfg.memoryOverride) {
        mem::MemorySystemConfig m = *cfg.memoryOverride;
        if (cfg.zoo.enabled && m.dmaSetupSeconds == 0.0)
            m.dmaSetupSeconds = cfg.zoo.dmaSetupSeconds;
        return m;
    }

    mem::MemorySystemConfig m;
    m.dmaEngines = cfg.dmaEngines;
    if (cfg.zoo.enabled)
        m.dmaSetupSeconds = cfg.zoo.dmaSetupSeconds;
    if (cfg.platform == Platform::Sn40l) {
        arch::NodeConfig node =
            arch::NodeConfig::sn40lNode(cfg.tensorParallel);
        m.ddr.channels = node.sockets;
        m.ddr.perChannelBandwidth = node.chip.ddrBandwidth;
        m.ddr.efficiency = node.chip.ddrEfficiency;
        m.hbm.channels = node.sockets;
        m.hbm.perChannelBandwidth = node.chip.hbmBandwidth;
        m.hbm.efficiency = node.chip.hbmEfficiency;
    } else {
        baseline::DgxConfig dgx = cfg.platform == Platform::DgxA100
            ? baseline::DgxConfig::dgxA100()
            : baseline::DgxConfig::dgxH100();
        m.ddr.channels = 1; // the host link serializes every copy
        m.ddr.perChannelBandwidth = dgx.hostToGpuBandwidth;
        m.ddr.efficiency = 1.0;
        m.hbm.channels = dgx.gpus;
        m.hbm.perChannelBandwidth = dgx.gpu.hbmBandwidth;
        m.hbm.efficiency = dgx.gpu.hbmEfficiency;
    }
    return m;
}

ServingResult
analyticBatches(const ServingConfig &cfg, int batches)
{
    validateServingConfig(cfg);
    if (batches <= 0)
        sim::fatal("analyticBatches: batches must be positive, got " +
                   std::to_string(batches));
    PhaseCosts costs = computePhaseCosts(cfg);
    ServingResult result;

    ExpertZoo zoo = buildServingZoo(cfg);
    std::int64_t region =
        ServingEngine::effectiveExpertRegionBytes(cfg, costs);
    result.residentCapacityExperts = static_cast<int>(
        static_cast<double>(region) / zoo.maxExpertBytes());

    double backing = zoo.totalBytes();
    if (cfg.zoo.enabled)
        backing += cfg.expertBase.weightBytes();
    if (backing > costs.capacityBytes) {
        result.oom = true;
        return result;
    }

    CoeRuntime runtime(zoo, region);
    Router router(cfg.numExperts, cfg.routing, cfg.seed, cfg.zipfS);

    double router_total = 0.0, switch_total = 0.0, exec_total = 0.0;
    std::int64_t prompts = 0, misses = 0;

    double per_prompt_exec =
        costs.prefillSeconds +
        cfg.outputTokens * costs.decodeSecondsPerToken;
    if (cfg.specDecode.enabled) {
        // Closed-form counterpart of the event-driven per-request
        // sampler: expected steps at the configured acceptance rate,
        // each step paying one target verification plus gamma draft
        // tokens at draftRatio of the target's decode cost.
        runtime::SpecDecodeConfig sd;
        sd.gamma = cfg.specDecode.gamma;
        sd.acceptRate = cfg.specDecode.acceptRate;
        double steps = cfg.outputTokens / sd.expectedTokensPerStep();
        double step_seconds = costs.decodeSecondsPerToken *
            (1.0 + sd.gamma * cfg.specDecode.draftRatio);
        per_prompt_exec = costs.prefillSeconds + steps * step_seconds;
    }

    for (int r = 0; r < batches; ++r) {
        router_total += costs.routerSeconds;
        for (int b = 0; b < cfg.batch; ++b) {
            ++prompts;
            int expert = router.route();
            Activation act = runtime.activate(expert);
            if (!act.hit) {
                ++misses;
                double bytes = act.bytesToLoad + act.bytesToWriteBack;
                double copy = costs.switchSeconds *
                    (bytes / zoo.expert(expert).bytes);
                if (cfg.predictivePrefetch) {
                    // The copy overlaps the router (first prompt) or
                    // the previous prompt's execution (later prompts);
                    // only the remainder is exposed.
                    double hide = b == 0 ? costs.routerSeconds
                                         : per_prompt_exec;
                    copy = std::max(0.0, copy - hide);
                }
                switch_total += copy;
            }
            exec_total += per_prompt_exec;
        }
    }

    double n = static_cast<double>(batches);
    result.perBatch.routerSeconds = router_total / n;
    result.perBatch.switchSeconds = switch_total / n;
    result.perBatch.execSeconds = exec_total / n;
    result.missRate =
        static_cast<double>(misses) / static_cast<double>(prompts);
    result.expertSecondsPerPrompt = per_prompt_exec;
    return result;
}

} // namespace sn40l::coe

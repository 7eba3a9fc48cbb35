/**
 * @file
 * End-to-end Samba-CoE serving simulator (Sections V-B and VI-C,
 * Figs 1, 9, 12): prompt -> router -> expert switch -> expert
 * execution, on an SN40L node (three-tier memory) or a DGX baseline
 * (HBM + host DRAM over the host link).
 *
 * ServingSimulator (cluster.h) is the request-stream scheduler on
 * sim::EventQueue. Requests arrive via an open-loop Poisson process
 * or a closed-loop client pool, wait in an admission queue, and are
 * formed into continuous batches by a policy (FIFO or expert-affinity)
 * that plays against the live CoeRuntime LRU state. It reports tail
 * latency (p50/p95/p99), sustained throughput, queue depth, and miss
 * rate under load, and runs as a 1-node, full-replication
 * coe::ClusterSimulator (cluster.h), the one event-driven driver.
 *
 * analyticBatches() is the paper's closed-form batch model (Figs 1,
 * 12, Table V): every batch is fully formed up front and the result
 * is the mean latency breakdown per batch. It is the reference the
 * event-driven path is compared against.
 */

#ifndef SN40L_COE_SERVING_H
#define SN40L_COE_SERVING_H

#include <optional>
#include <string>

#include "arch/chip_config.h"
#include "baseline/gpu_config.h"
#include "coe/coe_runtime.h"
#include "coe/router.h"
#include "coe/workload.h"
#include "mem/memory_system.h"
#include "models/transformer_builder.h"
#include "sim/stats.h"

namespace sn40l::coe {

enum class Platform { Sn40l, DgxA100, DgxH100 };

const char *platformName(Platform platform);
/** "sn40l", "dgx-a100" or "dgx-h100"; anything else is sim::fatal. */
Platform platformFromName(const std::string &name);

/** Ignored: every run is event-driven. The benchmark still sets it. */
enum class ServingMode { EventDriven };

/** How requests enter the system. */
enum class ArrivalProcess {
    Poisson,    ///< open loop: exponential inter-arrival times
    ClosedLoop, ///< fixed client pool; a client re-issues after think time
};

/** How the admission queue is drained into batches. */
enum class SchedulerPolicy {
    Fifo,           ///< strict arrival order, experts as they come
    ExpertAffinity, ///< group same-expert requests; prefer resident experts
};

const char *schedulerPolicyName(SchedulerPolicy policy);
SchedulerPolicy schedulerPolicyFromName(const std::string &name);

/**
 * Speculative decoding as a serving mode (Table IV): a small draft
 * model lives permanently in the HBM expert region and proposes
 * `gamma` tokens per step; the target expert verifies them in one
 * pass. Each request's number of draft/verify steps is sampled from
 * its own acceptance-rate stream and flows through the per-request
 * exec/traffic shape hooks, so tokens/s, queue depth, and HBM
 * contention respond to gamma and acceptRate inside the event loop.
 */
struct SpecDecodeServingConfig
{
    bool enabled = false;
    int gamma = 4;           ///< draft tokens per verification step
    double acceptRate = 0.8; ///< per-token draft acceptance probability

    /**
     * Draft model size and per-token cost as a fraction of the target
     * expert. The draft's weights are pinned in the expert region
     * (draftRatio * expertBase.weightBytes()) for the whole run.
     */
    double draftRatio = 0.05;
};

/**
 * PEFT expert zoo (CoE pitch, Section V-B): thousands of LoRA
 * adapters share pinned base weights; an expert switch streams only
 * the adapter-sized delta DDR -> HBM, exercising many tiny DMA
 * transfers instead of few multi-GB ones.
 */
struct ZooServingConfig
{
    bool enabled = false;

    /** LoRA rank; adapter bytes scale linearly with it. */
    int rank = 16;

    /**
     * Trending-adapter churn: every this many seconds the workload's
     * routed adapter ids rotate by a deterministic stride, forcing
     * cold loads. 0 disables churn.
     */
    double churnEverySeconds = 0.0;

    /**
     * Fixed per-transfer DMA setup cost (descriptor programming).
     * Negligible against multi-GB expert copies but dominant for
     * adapter-sized ones — the many-tiny-transfer regime. Applied to
     * every DMA transfer while the zoo is enabled.
     */
    double dmaSetupSeconds = 4e-6;
};

/** Bytes of one LoRA adapter at @p rank for base model @p base. */
double loraAdapterBytes(const models::LlmConfig &base, int rank);

struct ServingConfig
{
    Platform platform = Platform::Sn40l;

    ServingMode mode = ServingMode::EventDriven; ///< ignored

    int numExperts = 150;
    int batch = 1;         ///< prompts per CoE batch (paper: 1 and 8)
    int outputTokens = 20; ///< paper: 20 (chat) and 200 (translation)
    int promptLen = 2048;

    RoutingDistribution routing = RoutingDistribution::Uniform;
    double zipfS = 1.0;    ///< skew for RoutingDistribution::Zipf
    std::uint64_t seed = 1;

    /**
     * Predictive prefetching (extension): once the router has chosen
     * the batch's experts, DDR->HBM copies overlap with the router's
     * own execution and with preceding prompts' expert executions,
     * exposing only the un-hidden remainder of each copy.
     */
    bool predictivePrefetch = false;

    models::LlmConfig expertBase = models::LlmConfig::llama2_7b();

    /** Tensor parallel degree (TP8 on every platform, Section VI-C). */
    int tensorParallel = 8;

    // ----------------------------------------- request stream ------

    ArrivalProcess arrival = ArrivalProcess::Poisson;
    SchedulerPolicy scheduler = SchedulerPolicy::Fifo;

    /** Total requests injected before the stream drains. */
    int streamRequests = 512;

    /** Open-loop mean arrival rate (requests/second). */
    double arrivalRatePerSec = 8.0;

    /** Closed-loop client pool size and think time. */
    int clients = 16;
    double thinkSeconds = 0.0;

    /**
     * Expert-affinity starvation guard: a queued request whose expert
     * has been passed over this many consecutive batches forces its
     * expert to be scheduled next.
     */
    int affinityMaxSkips = 8;

    // ------------------------------------------ memory system ------

    /**
     * DMA engines streaming expert segments DDR -> HBM. More engines
     * overlap more expert copies, but they share the same tier
     * bandwidth channels.
     */
    int dmaEngines = 2;

    /**
     * Override the HBM expert-region size in bytes (0 keeps the
     * platform default derived from node HBM minus the router/KV
     * reserve).
     */
    std::int64_t expertRegionBytes = 0;

    /**
     * Maximum outstanding speculative prefetches when predictivePrefetch
     * is set. Prefetches are issued for queued-but-unscheduled requests
     * at low DMA priority and cancelled under eviction pressure.
     */
    int prefetchDepth = 4;

    /**
     * Speculation window: how many queued requests the prefetcher
     * inspects from the front of the queue per scheduling decision.
     * 0 (default) scans the whole queue — the exact historical
     * behaviour — which is O(queue) per arrival when the head of a
     * deep queue is all resident experts; overloaded sweeps with
     * prefetch on should bound it (e.g. 64) to stay linear.
     */
    int prefetchWindow = 0;

    /**
     * Replace the platform-derived memory-system shape (channel
     * counts, bandwidths, interleave) — used by ablations to model
     * e.g. an SN40L whose experts spill over the host link instead of
     * node DDR. It moves the analytic switch price too
     * (computePhaseCosts). dmaEngines inside the override wins over
     * the field above.
     */
    std::optional<mem::MemorySystemConfig> memoryOverride;

    /**
     * Workload scenario knobs: tenant mixes, conversational sessions,
     * rate shaping, SLO admission, trace record/replay. Defaults keep
     * the single-tenant arrival processes bit-identical (coe/workload.h).
     */
    WorkloadConfig workload;

    /** Speculative-decoding serving mode. */
    SpecDecodeServingConfig specDecode;

    /** PEFT expert-zoo serving mode. */
    ZooServingConfig zoo;
};

struct LatencyBreakdown
{
    double routerSeconds = 0.0;
    double switchSeconds = 0.0;
    double execSeconds = 0.0; ///< expert prefill + decode

    double
    total() const
    {
        return routerSeconds + switchSeconds + execSeconds;
    }

    /** Fraction of the batch latency spent switching (Fig 1). */
    double
    switchShare() const
    {
        double t = total();
        return t > 0.0 ? switchSeconds / t : 0.0;
    }
};

/** Load-dependent metrics produced by the event-driven scheduler. */
struct StreamMetrics
{
    double p50LatencySeconds = 0.0;
    double p95LatencySeconds = 0.0;
    double p99LatencySeconds = 0.0;
    double meanLatencySeconds = 0.0;
    double maxLatencySeconds = 0.0;

    double throughputRequestsPerSec = 0.0;
    double throughputTokensPerSec = 0.0;

    double meanQueueDepth = 0.0; ///< time-weighted over the run
    double maxQueueDepth = 0.0;

    double meanBatchOccupancy = 0.0; ///< requests per formed batch
    std::int64_t batches = 0;
    std::int64_t completed = 0;

    double makespanSeconds = 0.0; ///< first arrival to last completion

    /**
     * Per-batch expert-load stall exposed beyond the router (the part
     * of the DMA streaming the batch actually waited on).
     */
    double meanSwitchStallSeconds = 0.0;
    double p95SwitchStallSeconds = 0.0;

    /** Speculative-prefetch accounting (predictivePrefetch only). */
    std::int64_t prefetchesIssued = 0;
    std::int64_t prefetchHits = 0;
    std::int64_t prefetchesCancelled = 0;

    /**
     * SLO admission-control accounting: requests refused at admission
     * (shed) and the shed fraction of everything that arrived.
     * Non-zero only when the workload carries deadlines.
     */
    std::int64_t shed = 0;
    double shedRate = 0.0;

    /**
     * Chaos-layer accounting (coe/faults.h), all zero on fault-free
     * runs: requests lost to crashes/transient failures after the
     * retry budget, retries dispatched, hedged dispatches issued, and
     * hedges whose duplicate finished first (loser cancelled).
     */
    std::int64_t lost = 0;
    std::int64_t retried = 0;
    std::int64_t hedged = 0;
    std::int64_t hedgeWon = 0;

    /**
     * Speculative-decoding accounting (specDecode.enabled only):
     * total draft/verify steps across completed requests and the mean
     * tokens emitted per step (outputTokens / steps), the measured
     * counterpart of SpecDecodeConfig::expectedTokensPerStep().
     */
    std::int64_t specSteps = 0;
    double specTokensPerStep = 0.0;

    /** Simulator events the run executed (perf accounting, not a
     *  modeled quantity — see bench/perf_gate). */
    std::uint64_t eventsExecuted = 0;
};

struct ServingResult
{
    bool oom = false;          ///< experts exceed platform capacity
    LatencyBreakdown perBatch; ///< average over simulated batches
    double missRate = 0.0;
    int residentCapacityExperts = 0;

    /** Per-prompt expert execution time (no router/switch). */
    double expertSecondsPerPrompt = 0.0;

    /** Left empty by analyticBatches(). */
    StreamMetrics stream;
};

/** Platform-dependent primitive costs, exposed for tests/benches. */
struct PhaseCosts
{
    double routerSeconds = 0.0;          ///< per batch
    double prefillSeconds = 0.0;         ///< per prompt
    double decodeSecondsPerToken = 0.0;  ///< per prompt per token
    double switchSeconds = 0.0;          ///< per idle expert copy
    std::int64_t expertRegionBytes = 0;  ///< HBM available for experts
    double capacityBytes = 0.0;          ///< total expert capacity

    /** One default-shape prompt: prefill plus @p outputTokens decodes. */
    double
    promptSeconds(int outputTokens) const
    {
        return prefillSeconds +
            static_cast<double>(outputTokens) * decodeSecondsPerToken;
    }

    /** A full batch: the router plus @p batch default prompts. */
    double
    batchSeconds(int batch, int outputTokens) const
    {
        return routerSeconds +
            static_cast<double>(batch) * promptSeconds(outputTokens);
    }
};

/**
 * Price the platform's serving primitives (router, prefill, decode,
 * expert switch) for @p cfg through the process-wide cost memo. The
 * returned expertRegionBytes is cfg.expertRegionBytes when set, else
 * the platform default. The ClusterSimulator prices once for all its
 * nodes; a per-node region override replaces expertRegionBytes.
 */
PhaseCosts computePhaseCosts(const ServingConfig &cfg);

/** Total HBM of one serving node of cfg.platform: the expert region's cap. */
std::int64_t platformHbmBytes(const ServingConfig &cfg);

/**
 * Reject invalid or contradictory ServingConfig fields with a
 * FatalError. Shared by ClusterSimulator and analyticBatches().
 */
void validateServingConfig(const ServingConfig &cfg);

/**
 * Build the expert zoo for @p cfg: cfg.numExperts full-weight copies
 * of expertBase by default, or cfg.numExperts LoRA adapters of
 * loraAdapterBytes(expertBase, zoo.rank) each when the zoo is
 * enabled (base weights are pinned separately by the engine). Shared
 * by ClusterSimulator and analyticBatches() so placement and serving
 * agree on expert sizes.
 */
ExpertZoo buildServingZoo(const ServingConfig &cfg);

/**
 * Shape the three-tier memory system after the serving platform: the
 * SN40L streams experts from node DDR (one DDR and one HBM channel
 * group per socket), the DGX baselines from host DRAM over the single
 * host link into the GPUs' pooled HBM. Honors cfg.memoryOverride and
 * cfg.dmaEngines. The one description of the platform's copy path:
 * its copyTicks() is the analytic switch price and the event path's
 * idle load estimate.
 */
mem::MemorySystemConfig platformMemoryConfig(const ServingConfig &cfg);

/**
 * The paper's closed-form batch model (Figs 1, 12, Table V): route
 * @p batches batches of cfg.batch prompts through the LRU, charging
 * the router once per batch, a copy of the bytes each miss moves at
 * platformMemoryConfig's idle rate (less what predictive prefetch
 * hides behind the router or the previous prompt) and every prompt's
 * execution. Returns the mean per-batch breakdown;
 * ServingResult::stream stays empty. @p batches > 0.
 */
ServingResult analyticBatches(const ServingConfig &cfg, int batches);

} // namespace sn40l::coe

#endif // SN40L_COE_SERVING_H

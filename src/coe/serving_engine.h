/**
 * @file
 * One node's event-driven serving stack. coe::ClusterSimulator runs
 * one engine per node on a single shared sim::EventQueue.
 * Single-node serving (ServingSimulator) is a 1-node
 * cluster, so every event-driven run drives its engines through the
 * cluster. The engine only ever schedules against the sim::EventQueue
 * it was constructed with and touches no state outside its node.
 *
 * The engine owns the node's expert zoo, CoeRuntime (HBM expert
 * region + LRU), and mem::MemorySystem (DDR/HBM tiers + DMA pool),
 * and runs the pipeline
 *
 *   inject -> admission queue -> batch formation -> router + expert
 *   DMA -> prompt execution (compute joined with HBM traffic) ->
 *   completion
 *
 * entirely through events on the caller's queue. It does NOT generate
 * arrivals and does NOT draw routing decisions: the cluster owns the
 * workload model (arrivals + routing), hands each request to an
 * engine's injectAt() in ClusterSimulator::handOff, and its finish()
 * turns the engines' totals into StreamMetrics and the Fig 1
 * per-batch split.
 */

#ifndef SN40L_COE_SERVING_ENGINE_H
#define SN40L_COE_SERVING_ENGINE_H

#include <functional>
#include <vector>

#include "coe/coe_runtime.h"
#include "coe/serving.h"
#include "coe/workload.h"
#include "mem/memory_system.h"
#include "sim/event_queue.h"
#include "sim/stats.h"

namespace sn40l::coe {

/** One prompt queued on (or executing in) a node engine. */
struct EngineRequest
{
    int id = 0;
    sim::Tick arrival = 0;
    int expert = 0;
    /**
     * Batch-formation count at enqueue time. A request's age in
     * batches (the affinity starvation guard) is derived as
     * "formations completed since" instead of bumping a counter on
     * every queued request per batch — the bump was O(queue) per
     * batch and made overloaded runs quadratic.
     */
    std::int64_t enqueuedAtBatch = 0;

    // ---- workload-scenario fields (coe/workload.h) --------------
    int tenant = 0;
    int session = -1; ///< conversational session id, -1 = one-shot
    int turn = 0;     ///< turn index within the session
    /**
     * Admission priority: under SLO admission control a priority-p
     * request tolerates (1 + p) times its deadline in estimated
     * queueing delay before being shed, so paid tiers outlast free
     * tiers in an overload.
     */
    int priority = 0;
    /** SLO deadline from arrival, seconds; 0 disables admission. */
    double deadlineSeconds = 0.0;
    /**
     * Per-prompt execution seconds and working-tier traffic bytes,
     * resolved from the request's prompt/decode lengths at injection.
     * Default-shape requests carry exactly the engine's precomputed
     * per-prompt constants, which keeps legacy runs bit-identical.
     */
    double execSeconds = 0.0;
    double trafficBytes = 0.0;
    /**
     * Draft/verify steps this request's decode was sampled to take
     * (specDecode.enabled only, else 0). Carried on the request so
     * retries/re-dispatches keep their shape and completion-side
     * accounting never double-counts.
     */
    int specSteps = 0;

    // ---- chaos-layer fields (coe/faults.h) ----------------------
    /** Times this request has been re-dispatched after a failure. */
    int attempt = 0;
    /**
     * A hedged dispatch's duplicate copy: its completion is not a
     * request completion (the cluster credits exactly one completion
     * per hedged id) and SLO admission refuses it silently instead
     * of counting a shed.
     */
    bool hedgeDuplicate = false;
};

/**
 * Translate a completed/shed EngineRequest back into the workload
 * layer's descriptor so models can react (session follow-ups, client
 * re-issue). Single definition: the serving and cluster drivers must
 * not drift on which fields round-trip.
 */
TrafficRequest toTrafficRequest(const EngineRequest &request);

class ServingEngine
{
  public:
    /**
     * @param cfg   fully validated serving config for this
     *              node (batch, scheduler, prefetch, DMA shape).
     * @param costs platform phase costs; costs.expertRegionBytes sizes
     *              this node's HBM expert region.
     * @param zoo   the expert zoo, moved in (the runtime keeps a
     *              reference, so the engine must own it).
     *
     * Throws FatalError when the expert region cannot hold the
     * concurrent pinnable working set (batch + in-flight prefetches).
     */
    ServingEngine(sim::EventQueue &eq, const ServingConfig &cfg,
                  const PhaseCosts &costs, ExpertZoo zoo);

    /**
     * HBM expert-region bytes actually available to the LRU after the
     * always-resident reservations: the draft model's weights
     * (specDecode: draftRatio * expertBase.weightBytes()) and the
     * pinned base weights the zoo's adapters share (zoo:
     * expertBase.weightBytes()). With both features off this is
     * exactly costs.expertRegionBytes. Fatals when the reservations
     * do not fit the region.
     */
    static std::int64_t effectiveExpertRegionBytes(
        const ServingConfig &cfg, const PhaseCosts &costs);

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /**
     * Invoked at the exact point a finished batch has released its
     * experts and cleared busy, before the next batch forms — the
     * hook drives closed-loop client re-injection and cluster-level
     * bookkeeping.
     */
    void setOnBatchComplete(std::function<void(int finished)> hook)
    {
        onBatchComplete_ = std::move(hook);
    }

    /**
     * Optional cluster-wide sample sinks: every latency/stall sample
     * this engine records is mirrored into them, in recording order,
     * so cluster distributions are exact merges.
     */
    void setMirrors(sim::Distribution *latency, sim::Distribution *stalls)
    {
        latencyMirror_ = latency;
        stallsMirror_ = stalls;
    }

    /**
     * Invoked once per completed request, at its completion time (from
     * inside the batch-completion event, before the batch hook). The
     * workload layer uses it to schedule session follow-up turns.
     */
    void setOnRequestComplete(std::function<void(const EngineRequest &)> hook)
    {
        onRequestComplete_ = std::move(hook);
    }

    /** Invoked when SLO admission control sheds a request. */
    void setOnRequestShed(std::function<void(const EngineRequest &)> hook)
    {
        onRequestShed_ = std::move(hook);
    }

    /**
     * Admit a default-shape request @p id for @p expert; must be
     * called from inside an event on the shared queue. The request's
     * arrival timestamp is now().
     */
    void inject(int id, int expert);

    /**
     * Admit a fully built request carrying its own arrival timestamp
     * (makeEngineRequest), so a request that crossed the fabric, was
     * retried or re-dispatched still counts its latency from the
     * original arrival. When the request carries a deadline, SLO
     * admission control may shed it instead: the request never enters
     * the queue, shedCount() grows, and the shed hook fires. The shed
     * estimate is deliberately simple and deterministic — batches
     * already committed ahead of the request, each priced at
     * PhaseCosts::batchSeconds — so replaying a trace under a
     * different SLO is reproducible.
     */
    void injectAt(EngineRequest request);

    /**
     * Remove and return every queued (not yet batch-formed) request,
     * in id (arrival) order. The executing batch, if any, completes
     * normally. Outstanding speculative prefetches are left to land;
     * they surface as prefetch-ready residents and age out via LRU.
     */
    std::vector<EngineRequest> extractQueued();

    /**
     * Crash the node mid-batch: return every queued request AND the
     * in-flight batch's requests (none of them complete here), in id
     * order. Unlike a clean drain, the executing batch is abandoned
     * as a ghost batch that completes nothing: its router and DMA
     * events still fire, and if it is executing, the prompt in flight
     * runs to its end while the prompts not yet started (one starting
     * at this tick included) never book HBM traffic. coe.batch_done moves to that prompt's end, where
     * the ghost releases its pinned experts. The caller (the
     * cluster's retry policy) decides the displaced requests' fate.
     */
    std::vector<EngineRequest> crashExtract();

    /**
     * Remove one queued (not yet batch-formed) request without
     * counting it anywhere — hedge-loser cancellation. @return false
     * when the id is not queued here (already forming, completed, or
     * never admitted).
     */
    bool cancelQueued(int id);

    /**
     * Resolve a workload request into an EngineRequest carrying
     * @p arrival. The result depends only on the node-independent
     * fields of the config and costs (never dmaEngines or the region
     * size), so the cluster builds one per arrival for whichever node
     * serves it, and its retries and hedge copy keep that arrival.
     */
    EngineRequest makeEngineRequest(const TrafficRequest &request,
                                    sim::Tick arrival) const;

    /**
     * Chaos actuator: persistent service-time multiplier on prompt
     * execution (a straggler node). Exactly 1.0 (the default) leaves
     * execution arithmetic bit-identical to a healthy node.
     */
    void setServiceFactor(double factor);
    double serviceFactor() const { return serviceFactor_; }

    /** One finished request, as seen by the cluster's hedge logic. */
    struct CompletionRecord
    {
        int id = 0;
        double latencySeconds = 0.0;
        bool hedgeDuplicate = false;
    };

    /**
     * When enabled (hedged dispatch only), every finished request is
     * appended to completionLog() for the cluster to drain at policy
     * ticks. Off by default: the no-chaos path records nothing.
     */
    void setLogCompletions(bool on) { logCompletions_ = on; }
    std::vector<CompletionRecord> &completionLog()
    {
        return completionLog_;
    }

    /**
     * Drop every Loaded, unpinned expert from the node's HBM region —
     * a node rejoining after a drain restarts cold and re-warms its
     * resident set from live traffic. Loading / prefetch-reserved
     * entries survive (their DMA will land) and pinned entries are
     * untouched.
     */
    void flushResident() { runtime_.flushUnpinned(); }

    // ------------------------------------------------- observability

    bool busy() const { return busy_; }
    std::size_t queueDepth() const { return queue_.live + late_.live; }
    /** Requests admitted but not yet completed. */
    std::int64_t outstanding() const
    {
        return injectedCount_ - completedCount_;
    }

    std::int64_t completedCount() const { return completedCount_; }
    /** Draft/verify steps across completed requests (specDecode). */
    std::int64_t specStepsTotal() const { return specStepsTotal_; }
    std::int64_t injectedCount() const { return injectedCount_; }
    std::int64_t batchCount() const { return batchCount_; }
    std::int64_t missCount() const { return missCount_; }
    /** Requests refused by SLO admission control (not injected). */
    std::int64_t shedCount() const { return shedCount_; }

    double routerSecondsTotal() const { return routerTotal_; }
    double switchSecondsTotal() const { return switchTotal_; }
    double execSecondsTotal() const { return execTotal_; }
    double occupancyTotal() const { return occupancyTotal_; }

    sim::Tick firstArrival() const { return firstArrival_; }
    sim::Tick lastCompletion() const { return lastCompletion_; }

    double depthIntegral() const { return depthIntegral_; }
    double queueDepthMax() const { return queueDepthMax_; }

    /** High-water mark of resident expert bytes in the HBM region. */
    std::int64_t peakResidentBytes() const { return peakResidentBytes_; }

    int residentCapacityExperts() const { return residentCapacity_; }

    const sim::Distribution &latency() const { return latency_; }
    const sim::StatSet &stats() const { return stats_; }

    mem::MemorySystem &memorySystem() { return memsys_; }

  private:
    /** Engine-side state of one expert, dense by expert id. */
    struct ExpertSlot
    {
        /** Its load, queued or streaming; kInvalidTransfer if none. */
        mem::TransferId transfer = mem::kInvalidTransfer;
        /** Its entry in queuedExperts_, or -1 when none is queued. */
        int queuedPos = -1;
        bool awaited = false;             ///< the formed batch waits on it
        bool prefetchOutstanding = false; ///< speculative load in flight
        bool prefetchReady = false; ///< landed speculation, unused yet

        // ---- its queued requests (ExpertAffinity only) ----------
        /**
         * Queued request ids as a min-heap, oldest on top, so an
         * older id re-entering costs what any other does. A cancelled
         * id below the top lingers as a stale entry until it surfaces
         * (see expertOldest); the vector keeps its capacity between
         * batches.
         */
        std::vector<int> queuedIds;
        int queuedLive = 0; ///< queued requests, stale ids excluded
    };

    /** One admission-queue entry; live == false marks a tombstone. */
    struct QueueEntry
    {
        EngineRequest request;
        bool live = true;
    };

    /**
     * One id-sorted run of the admission queue: a vector consumed
     * from a head index. Taking an entry leaves a tombstone that keeps
     * its id, so the run stays sorted for binary search; entries
     * before head are all dead, and the run is compacted once half of
     * it is dead. It keeps its capacity, so steady-state use
     * allocates nothing.
     */
    struct QueueRun
    {
        std::vector<QueueEntry> entries;
        std::size_t head = 0;
        std::size_t live = 0;

        int backId() const { return entries.back().request.id; }
        /** Index of a live entry with @p id, or entries.size(). */
        std::size_t find(int id) const;
        /** Append @p request; its id is >= every id in the run. */
        void push(EngineRequest request);
        /** Move out the live entry at @p pos, leaving a tombstone. */
        EngineRequest take(std::size_t pos);
        void clear();
    };

    /** A live admission-queue entry; run is null for "none". */
    struct QueuePos
    {
        QueueRun *run = nullptr;
        std::size_t pos = 0;
    };

    ExpertSlot &slot(int expert)
    {
        return experts_[static_cast<std::size_t>(expert)];
    }

    void touchDepth(std::size_t next_depth);
    void samplePeakResident();
    double prefillSecondsFor(int prompt_len) const;
    double execSecondsFor(int prompt_len, int output_tokens) const;
    double trafficBytesFor(int output_tokens) const;
    bool shouldShed(const EngineRequest &request) const;
    int pickExpert();
    void onLoadDone(int expert);
    /** Clear @p s's speculative flag. @return whether it was set. */
    bool clearPrefetchOutstanding(ExpertSlot &s);
    void maybePrefetch();
    void enqueue(EngineRequest request);
    void mergeLate();
    QueuePos findQueued(int id);
    /** The oldest queued request; the queue must not be empty. */
    QueuePos oldestQueued();
    /** Visit queued requests in id order until @p fn returns false. */
    template <typename Fn> void forEachQueued(Fn fn) const;
    /** Move a queued request into the forming batch. */
    void takeQueued(QueuePos at);
    void indexQueued(int id, int expert);
    void unindexQueued(int id, int expert);
    /** @p s's oldest queued id, dropping stale (cancelled) ones. */
    int expertOldest(ExpertSlot &s);
    void formBatch();
    void maybeLaunch();
    /** End of @p prompt started at @p start (see bookPromptsBefore). */
    sim::Tick promptEnd(const EngineRequest &prompt, sim::Tick start,
                        sim::Tick traffic_end) const;
    /** Book, in order, the HBM traffic of every prompt with t_k < @p end. */
    void bookPromptsBefore(sim::Tick end);
    sim::Tick plannedBatchEnd() const;
    /** Schedule (or move) coe.batch_done to plannedBatchEnd(). */
    void armBatchDone();
    void onBatchDone();
    void finishBatch();

    sim::EventQueue &eq_;
    ServingConfig cfg_;
    PhaseCosts costs_;
    ExpertZoo zoo_;
    CoeRuntime runtime_;
    mem::MemorySystem memsys_;

    sim::Distribution latency_{"request_latency"};
    sim::StatSet stats_{"serving"};
    // Counters resolved once (StatSet::counter): these run per
    // request, per batch or per load.
    double &prefetchesIssuedStat_ = stats_.counter("prefetches_issued");
    double &prefetchesCancelledStat_ =
        stats_.counter("prefetches_cancelled");
    double &prefetchHitsStat_ = stats_.counter("prefetch_hits");
    double &prefetchPartialHitsStat_ =
        stats_.counter("prefetch_partial_hits");
    double &starvationOverridesStat_ =
        stats_.counter("affinity_starvation_overrides");
    double &hedgeRefusedStat_ = stats_.counter("hedge_duplicates_refused");
    double &hedgeCompletionsStat_ =
        stats_.counter("hedge_duplicate_completions");
    double &cancelledQueuedStat_ = stats_.counter("cancelled_queued");
    sim::Distribution *latencyMirror_ = nullptr;
    sim::Distribution *stallsMirror_ = nullptr;
    std::function<void(int)> onBatchComplete_;
    std::function<void(const EngineRequest &)> onRequestComplete_;
    std::function<void(const EngineRequest &)> onRequestShed_;

    double trafficBytesPerPrompt_ = 0.0;
    double serviceFactor_ = 1.0;
    bool logCompletions_ = false;
    std::vector<CompletionRecord> completionLog_;
    int residentCapacity_ = 0;
    /** Backing-tier layout: experts packed contiguously in DDR. */
    std::vector<std::int64_t> ddrOffset_;

    // ---- admission queue ----------------------------------------
    // Request ids are assigned in arrival order, so id order IS the
    // FIFO view. Arrivals append to queue_. A retried or re-dispatched
    // request carries an older id and appends to late_ instead: a
    // drain or a retry burst re-enters in ascending id order, and an
    // id older than late_'s newest first merges late_ into queue_, so
    // no insert ever shifts a run's tail. The oldest queued request is
    // the older of the two heads, a take or cancel is a binary search
    // plus a tombstone, and an id-order walk merges the two runs.
    QueueRun queue_;
    QueueRun late_;
    std::vector<QueueEntry> mergeBuf_; ///< reused by mergeLate()
    bool busy_ = false;
    bool affinity_ = false;
    /**
     * Experts with queued requests, in no particular order: batch
     * formation picks among them by request id, which is unique, so
     * the scan order never shows in a result. Scans and memory scale
     * with distinct queued experts, not zoo size.
     */
    std::vector<int> queuedExperts_;

    std::int64_t injectedCount_ = 0;
    std::int64_t completedCount_ = 0;
    std::int64_t specStepsTotal_ = 0;
    std::int64_t batchCount_ = 0;
    std::int64_t missCount_ = 0;
    std::int64_t shedCount_ = 0;
    /** Cached stable refs to stats_ "shed_tenant_<i>" counters. */
    std::vector<double *> shedTenantCounter_;
    double routerTotal_ = 0.0, switchTotal_ = 0.0, execTotal_ = 0.0;
    double occupancyTotal_ = 0.0;
    sim::Tick firstArrival_ = -1, lastCompletion_ = 0;

    // ---- async expert-load state --------------------------------
    std::vector<ExpertSlot> experts_;
    int prefetchOutstanding_ = 0; ///< experts with the flag set
    int pendingLoads_ = 0;        ///< experts with awaited set
    bool routerDone_ = false;
    sim::Tick batchStart_ = 0;
    sim::Tick execStart_ = 0;
    std::vector<EngineRequest> curBatch_;

    // ---- the executing batch (see bookPromptsBefore) ------------
    bool executing_ = false;
    /** First prompt whose HBM traffic is not booked yet. */
    std::size_t nextPrompt_ = 0;
    /** Its start tick: the end of the prompt before it. */
    sim::Tick promptStart_ = 0;
    sim::EventQueue::Handle batchDone_;
    sim::Tick batchDoneAt_ = 0;
    /** The batch's distinct experts in id order, pinned for it. */
    std::vector<int> curBatchExperts_;

    // Time-weighted queue-depth integral.
    sim::Tick depthMark_ = 0;
    double depthIntegral_ = 0.0;
    double queueDepthMax_ = 0.0;

    std::int64_t peakResidentBytes_ = 0;
    /** cfg_.expertBase.weightBytes(), read once: one weight stream. */
    double weightBytes_ = 0.0;
};

} // namespace sn40l::coe

#endif // SN40L_COE_SERVING_ENGINE_H

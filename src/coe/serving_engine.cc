#include "coe/serving_engine.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "runtime/spec_decode.h"
#include "sim/log.h"
#include "sim/rng.h"
#include "sim/ticks.h"

namespace sn40l::coe {

namespace {

/** Seed salt for the per-request spec-decode acceptance sampler. */
constexpr std::uint64_t kSpecSalt = 0x5bec0dec5bec0decULL;

} // namespace

TrafficRequest
toTrafficRequest(const EngineRequest &request)
{
    TrafficRequest t;
    t.id = request.id;
    t.tenant = request.tenant;
    t.expert = request.expert;
    t.session = request.session;
    t.turn = request.turn;
    t.priority = request.priority;
    t.deadlineSeconds = request.deadlineSeconds;
    t.hedgeDuplicate = request.hedgeDuplicate;
    return t;
}

std::int64_t
ServingEngine::effectiveExpertRegionBytes(const ServingConfig &cfg,
                                          const PhaseCosts &costs)
{
    std::int64_t region = costs.expertRegionBytes;
    double reserve = 0.0;
    if (cfg.specDecode.enabled)
        reserve +=
            cfg.specDecode.draftRatio * cfg.expertBase.weightBytes();
    if (cfg.zoo.enabled)
        reserve += cfg.expertBase.weightBytes();
    if (reserve <= 0.0)
        return region;
    auto reserved = static_cast<std::int64_t>(reserve);
    if (reserved >= region)
        sim::fatal("ServingConfig: always-resident reservations (" +
                   std::to_string(reserved) +
                   " bytes: draft model and/or zoo base weights) do "
                   "not fit the expert region (" +
                   std::to_string(region) + " bytes)");
    return region - reserved;
}

ServingEngine::ServingEngine(sim::EventQueue &eq, const ServingConfig &cfg,
                             const PhaseCosts &costs, ExpertZoo zoo)
    : eq_(eq), cfg_(cfg), costs_(costs), zoo_(std::move(zoo)),
      runtime_(zoo_, effectiveExpertRegionBytes(cfg_, costs_)),
      memsys_(eq, "memsys", platformMemoryConfig(cfg_))
{
    residentCapacity_ = static_cast<int>(
        static_cast<double>(runtime_.regionBytes()) /
        zoo_.maxExpertBytes());

    // A batch pins its experts for the whole execution, and issued
    // prefetches are unevictable while streaming; the region must be
    // able to hold that concurrent working set or demand activation
    // deadlocks.
    int pinnable = cfg_.batch +
        (cfg_.predictivePrefetch ? cfg_.dmaEngines : 0);
    if (residentCapacity_ < pinnable)
        sim::fatal("ServingConfig: expert region holds " +
                   std::to_string(residentCapacity_) +
                   " experts but a batch can pin " +
                   std::to_string(pinnable) +
                   "; shrink --batch or grow --expert-region-gb");

    affinity_ = cfg_.scheduler == SchedulerPolicy::ExpertAffinity;

    // HBM bytes one prompt's execution streams through the working
    // tier: the weights once for prefill, then once per decoded token
    // — the traffic the expert DMA engines contend with.
    weightBytes_ = cfg_.expertBase.weightBytes();
    trafficBytesPerPrompt_ = (1.0 + cfg_.outputTokens) * weightBytes_;

    ddrOffset_.resize(static_cast<std::size_t>(zoo_.size()), 0);
    std::int64_t cursor = 0;
    for (int e = 0; e < zoo_.size(); ++e) {
        ddrOffset_[static_cast<std::size_t>(e)] = cursor;
        cursor += static_cast<std::int64_t>(zoo_.expert(e).bytes);
    }
    experts_.resize(static_cast<std::size_t>(zoo_.size()));

    // Eviction pressure reclaims speculative reservations: cancel the
    // queued DMA if it has not been issued yet.
    runtime_.setPrefetchCancelHook([this](int e) {
        ExpertSlot &s = slot(e);
        if (s.transfer == mem::kInvalidTransfer)
            return true;
        if (!memsys_.cancel(s.transfer))
            return false; // already streaming; it will land
        s.transfer = mem::kInvalidTransfer;
        clearPrefetchOutstanding(s);
        prefetchesCancelledStat_ += 1.0;
        return true;
    });
    runtime_.setEvictionHook(
        [this](int e) { slot(e).prefetchReady = false; });
    // A DMA about to book HBM must queue behind the traffic of every
    // prompt that started before this tick (see promptEnd for ties).
    memsys_.setIssueHook([this]() {
        if (executing_)
            bookPromptsBefore(eq_.now());
    });
}

void
ServingEngine::touchDepth(std::size_t next_depth)
{
    depthIntegral_ += static_cast<double>(queueDepth()) *
        sim::toSeconds(eq_.now() - depthMark_);
    depthMark_ = eq_.now();
    queueDepthMax_ =
        std::max(queueDepthMax_, static_cast<double>(next_depth));
}

/**
 * Pick the expert the next batch serves (ExpertAffinity policy).
 * Preference order: a starving request's expert, then the best-backed
 * resident expert (no switch needed), then the most-queued expert
 * overall. Ties break toward the oldest queued request so the policy
 * stays deterministic.
 *
 * Called mid-formation, after batchCount_ was bumped for the batch
 * being formed, so a queued request's age is (batchCount_ - 1) minus
 * its enqueue mark. The queue is FIFO-ordered by id (requests only
 * leave from arbitrary positions, never reorder), so the front
 * request is simultaneously the oldest and the lowest id: if anyone
 * has aged past the guard, the front has, and it is the one the old
 * linear scan would have picked.
 */
int
ServingEngine::pickExpert()
{
    QueuePos oldest = oldestQueued();
    const EngineRequest &front = oldest.run->entries[oldest.pos].request;
    if (batchCount_ - 1 - front.enqueuedAtBatch >= cfg_.affinityMaxSkips) {
        starvationOverridesStat_ += 1.0;
        return front.expert;
    }

    int best = -1;
    bool best_resident = false;
    int best_count = 0;
    int best_oldest = 0;
    for (int e : queuedExperts_) {
        ExpertSlot &s = slot(e);
        int count = s.queuedLive;
        int oldest = expertOldest(s);
        bool res = runtime_.resident(e);
        bool better;
        if (best < 0) {
            better = true;
        } else if (res != best_resident) {
            better = res;
        } else if (count != best_count) {
            better = count > best_count;
        } else {
            better = oldest < best_oldest;
        }
        if (better) {
            best = e;
            best_resident = res;
            best_count = count;
            best_oldest = oldest;
        }
    }
    return best;
}

bool
ServingEngine::clearPrefetchOutstanding(ExpertSlot &s)
{
    if (!s.prefetchOutstanding)
        return false;
    s.prefetchOutstanding = false;
    --prefetchOutstanding_;
    return true;
}

void
ServingEngine::onLoadDone(int e)
{
    runtime_.completeLoad(e);
    ExpertSlot &s = slot(e);
    s.transfer = mem::kInvalidTransfer;
    bool speculative = clearPrefetchOutstanding(s);
    if (s.awaited) {
        s.awaited = false;
        --pendingLoads_;
        maybeLaunch();
        return;
    }
    if (speculative)
        s.prefetchReady = true;
}

/**
 * Speculative prefetch (predictivePrefetch, EventDriven flavour): the
 * router's decision for queued-but-unscheduled requests is already
 * known, so stream their experts DDR->HBM at low priority while the
 * current batch computes. Reservations never evict; demand pressure
 * cancels them instead.
 */
void
ServingEngine::maybePrefetch()
{
    if (!cfg_.predictivePrefetch)
        return;
    // Optional speculation window (cfg.prefetchWindow > 0): inspect at
    // most that many queued requests from the front. The default full
    // walk matches the historical behaviour but is O(queue) per
    // arrival when the head of a deep queue is all resident experts;
    // overloaded prefetch sweeps should bound it.
    int inspected = 0;
    forEachQueued([&](const EngineRequest &r) {
        if (cfg_.prefetchWindow > 0 && ++inspected > cfg_.prefetchWindow)
            return false;
        if (prefetchOutstanding_ >= cfg_.prefetchDepth)
            return false;
        if (runtime_.resident(r.expert))
            return true;
        auto act = runtime_.beginPrefetch(r.expert);
        if (!act)
            return false; // no free region block: stop speculating
        prefetchesIssuedStat_ += 1.0;
        int e = r.expert;
        ExpertSlot &s = slot(e);
        s.transfer = memsys_.load(
            ddrOffset_[static_cast<std::size_t>(e)], act->hbmOffset,
            act->bytesToLoad, mem::TransferPriority::Prefetch,
            [this, e]() { onLoadDone(e); });
        // A non-resident expert has no load in flight, so the flag was
        // clear.
        s.prefetchOutstanding = true;
        ++prefetchOutstanding_;
        return true;
    });
    samplePeakResident();
}

void
ServingEngine::samplePeakResident()
{
    peakResidentBytes_ = std::max(
        peakResidentBytes_,
        runtime_.regionBytes() - runtime_.freeRegionBytes());
}

void
ServingEngine::inject(int id, int expert)
{
    TrafficRequest req;
    req.id = id;
    req.expert = expert;
    injectAt(makeEngineRequest(req, eq_.now()));
}

EngineRequest
ServingEngine::makeEngineRequest(const TrafficRequest &request,
                                 sim::Tick arrival) const
{
    EngineRequest req;
    req.id = request.id;
    req.arrival = arrival;
    req.expert = request.expert;
    req.tenant = request.tenant;
    req.session = request.session;
    req.turn = request.turn;
    req.priority = request.priority;
    req.deadlineSeconds = request.deadlineSeconds;
    req.execSeconds =
        execSecondsFor(request.promptLen, request.outputTokens);
    req.trafficBytes = trafficBytesFor(request.outputTokens);
    req.hedgeDuplicate = request.hedgeDuplicate;
    if (cfg_.specDecode.enabled) {
        // Per-request acceptance sampling through the shape hooks:
        // the request's decode becomes `steps` draft/verify rounds,
        // each paying one target verification plus gamma draft tokens
        // at draftRatio of the target's per-token cost, and streaming
        // the target weights once per verification plus the draft's
        // (draftRatio-sized) weights per draft token. Seeded from
        // (config seed, request id) only, so retries and hedge
        // duplicates resample the exact same shape.
        runtime::SpecDecodeConfig sd;
        sd.gamma = cfg_.specDecode.gamma;
        sd.acceptRate = cfg_.specDecode.acceptRate;
        sim::Rng rng(sim::mix64(cfg_.seed ^ kSpecSalt) ^
                     sim::mix64(static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(request.id))));
        int tokens = request.outputTokens > 0 ? request.outputTokens
                                              : cfg_.outputTokens;
        int steps = runtime::sampleStepsForTokens(sd, tokens, rng);
        double step_cost = 1.0 + sd.gamma * cfg_.specDecode.draftRatio;
        req.specSteps = steps;
        req.execSeconds = prefillSecondsFor(request.promptLen) +
            steps * step_cost * costs_.decodeSecondsPerToken;
        req.trafficBytes = weightBytes_ * (1.0 + steps * step_cost);
    }
    return req;
}

void
ServingEngine::setServiceFactor(double factor)
{
    if (factor < 1.0)
        sim::fatal("serving: service-time factor must be >= 1 (got " +
                   std::to_string(factor) + ")");
    // Started prompts keep the factor they started under; the rest,
    // including one starting at this tick, are re-planned with the
    // new one.
    if (executing_)
        bookPromptsBefore(eq_.now());
    serviceFactor_ = factor;
    if (executing_)
        armBatchDone();
}

/**
 * Per-prompt execution time for a request's shape. The default shape
 * (both fields 0) is PhaseCosts::promptSeconds verbatim. Non-default
 * prompt lengths scale the priced prefill linearly — the priced graph
 * walk is for cfg.promptLen, and re-pricing per request would defeat
 * the cost memo — and decode cost is exactly linear in emitted tokens.
 */
double
ServingEngine::prefillSecondsFor(int prompt_len) const
{
    if (prompt_len > 0 && prompt_len != cfg_.promptLen)
        return costs_.prefillSeconds *
            (static_cast<double>(prompt_len) /
             static_cast<double>(cfg_.promptLen));
    return costs_.prefillSeconds;
}

double
ServingEngine::execSecondsFor(int prompt_len, int output_tokens) const
{
    int tokens = output_tokens > 0 ? output_tokens : cfg_.outputTokens;
    if (prompt_len <= 0 || prompt_len == cfg_.promptLen)
        return costs_.promptSeconds(tokens);
    return prefillSecondsFor(prompt_len) +
        tokens * costs_.decodeSecondsPerToken;
}

double
ServingEngine::trafficBytesFor(int output_tokens) const
{
    if (output_tokens <= 0 || output_tokens == cfg_.outputTokens)
        return trafficBytesPerPrompt_;
    return (1.0 + output_tokens) * weightBytes_;
}

/**
 * SLO admission estimate: batches already committed ahead of this
 * request, each priced at router + a full batch of default prompts,
 * plus the request's own batch. Deliberately ignores expert-switch
 * stalls and partial batches — a cheap deterministic bound beats an
 * oracle here, because replaying one trace under different SLO knobs
 * must stay reproducible.
 */
bool
ServingEngine::shouldShed(const EngineRequest &request) const
{
    double batch_seconds =
        costs_.batchSeconds(cfg_.batch, cfg_.outputTokens);
    double batches_ahead = static_cast<double>(
        queueDepth() / static_cast<std::size_t>(cfg_.batch) +
        (busy_ ? 1 : 0));
    double estimate = batches_ahead * batch_seconds +
        costs_.routerSeconds + request.execSeconds;
    return estimate >
        request.deadlineSeconds * (1.0 + request.priority);
}

void
ServingEngine::injectAt(EngineRequest request)
{
    if (request.deadlineSeconds > 0.0 && shouldShed(request)) {
        // A hedge duplicate is speculative capacity, not a request:
        // refusing it is silent (the primary copy's fate is the one
        // the conservation ledger tracks).
        if (request.hedgeDuplicate) {
            hedgeRefusedStat_ += 1.0;
            return;
        }
        ++shedCount_;
        // Per-tenant shed counters, through cached stable references
        // (StatSet::counter): an overloaded SLO run sheds most
        // arrivals, so the string-keyed lookup must not sit on the
        // per-arrival path.
        auto tenant = static_cast<std::size_t>(
            request.tenant >= 0 ? request.tenant : 0);
        while (shedTenantCounter_.size() <= tenant)
            shedTenantCounter_.push_back(&stats_.counter(
                "shed_tenant_" +
                std::to_string(shedTenantCounter_.size())));
        ++*shedTenantCounter_[tenant];
        if (onRequestShed_)
            onRequestShed_(request);
        return;
    }
    touchDepth(queueDepth() + 1);
    request.enqueuedAtBatch = batchCount_;
    if (firstArrival_ < 0)
        firstArrival_ = request.arrival;
    indexQueued(request.id, request.expert);
    enqueue(std::move(request));
    ++injectedCount_;
    if (!busy_)
        formBatch();
    else
        maybePrefetch();
}

std::size_t
ServingEngine::QueueRun::find(int id) const
{
    auto it = std::lower_bound(
        entries.begin() + static_cast<std::ptrdiff_t>(head), entries.end(),
        id, [](const QueueEntry &q, int key) { return q.request.id < key; });
    for (; it != entries.end() && it->request.id == id; ++it)
        if (it->live)
            return static_cast<std::size_t>(it - entries.begin());
    return entries.size();
}

void
ServingEngine::QueueRun::push(EngineRequest request)
{
    entries.push_back({std::move(request), true});
    ++live;
}

EngineRequest
ServingEngine::QueueRun::take(std::size_t pos)
{
    EngineRequest request = std::move(entries[pos].request);
    entries[pos].live = false;
    if (--live == 0) {
        clear();
        return request;
    }
    while (!entries[head].live)
        ++head;
    // Compact once half the entries are dead: each compaction moves
    // the live half and is paid for by the takes that killed the
    // other half.
    if (entries.size() - live > live) {
        entries.erase(std::remove_if(entries.begin(), entries.end(),
                                     [](const QueueEntry &q) {
                                         return !q.live;
                                     }),
                      entries.end());
        head = 0;
    }
    return request;
}

void
ServingEngine::QueueRun::clear()
{
    entries.clear();
    head = 0;
    live = 0;
}

void
ServingEngine::enqueue(EngineRequest request)
{
    if (queue_.entries.empty() || queue_.backId() < request.id) {
        queue_.push(std::move(request));
        return;
    }
    if (!late_.entries.empty() && request.id < late_.backId())
        mergeLate();
    late_.push(std::move(request));
}

template <typename Fn>
void
ServingEngine::forEachQueued(Fn fn) const
{
    const std::vector<QueueEntry> &a = queue_.entries;
    const std::vector<QueueEntry> &b = late_.entries;
    std::size_t i = queue_.head, j = late_.head;
    for (;;) {
        while (i < a.size() && !a[i].live)
            ++i;
        while (j < b.size() && !b[j].live)
            ++j;
        bool more_a = i < a.size(), more_b = j < b.size();
        if (!more_a && !more_b)
            return;
        const EngineRequest &r =
            more_b && (!more_a || b[j].request.id < a[i].request.id)
            ? b[j++].request
            : a[i++].request;
        if (!fn(r))
            return;
    }
}

/** Fold late_ into queue_: live entries only, in id order. */
void
ServingEngine::mergeLate()
{
    mergeBuf_.clear();
    forEachQueued([this](const EngineRequest &r) {
        mergeBuf_.push_back({r, true});
        return true;
    });
    queue_.entries.swap(mergeBuf_);
    queue_.head = 0;
    queue_.live = queue_.entries.size();
    late_.clear();
}

ServingEngine::QueuePos
ServingEngine::findQueued(int id)
{
    for (QueueRun *run : {&late_, &queue_}) {
        std::size_t pos = run->find(id);
        if (pos != run->entries.size())
            return {run, pos};
    }
    return {};
}

ServingEngine::QueuePos
ServingEngine::oldestQueued()
{
    if (late_.live > 0 &&
        (queue_.live == 0 || late_.entries[late_.head].request.id <
                                 queue_.entries[queue_.head].request.id))
        return {&late_, late_.head};
    return {&queue_, queue_.head};
}

void
ServingEngine::indexQueued(int id, int expert)
{
    if (!affinity_)
        return;
    ExpertSlot &s = slot(expert);
    if (s.queuedPos < 0) {
        s.queuedPos = static_cast<int>(queuedExperts_.size());
        queuedExperts_.push_back(expert);
    }
    ++s.queuedLive;
    s.queuedIds.push_back(id);
    std::push_heap(s.queuedIds.begin(), s.queuedIds.end(),
                   std::greater<int>());
}

void
ServingEngine::unindexQueued(int id, int expert)
{
    if (!affinity_)
        return;
    ExpertSlot &s = slot(expert);
    if (--s.queuedLive > 0) {
        // Batch formation takes an expert's oldest request; a
        // cancelled younger one stays behind as a stale id.
        if (s.queuedIds.front() == id) {
            std::pop_heap(s.queuedIds.begin(), s.queuedIds.end(),
                          std::greater<int>());
            s.queuedIds.pop_back();
        }
        return;
    }
    s.queuedIds.clear();
    // Swap-remove: queuedExperts_ order carries no meaning.
    auto pos = static_cast<std::size_t>(s.queuedPos);
    if (pos + 1 != queuedExperts_.size()) {
        queuedExperts_[pos] = queuedExperts_.back();
        slot(queuedExperts_[pos]).queuedPos = s.queuedPos;
    }
    queuedExperts_.pop_back();
    s.queuedPos = -1;
}

int
ServingEngine::expertOldest(ExpertSlot &s)
{
    // Stale ids exist only after a cancellation; until then the top
    // is live and this is one load.
    while (s.queuedIds.size() > static_cast<std::size_t>(s.queuedLive) &&
           findQueued(s.queuedIds.front()).run == nullptr) {
        std::pop_heap(s.queuedIds.begin(), s.queuedIds.end(),
                      std::greater<int>());
        s.queuedIds.pop_back();
    }
    return s.queuedIds.front();
}

std::vector<EngineRequest>
ServingEngine::extractQueued()
{
    touchDepth(0);
    std::vector<EngineRequest> out;
    out.reserve(queueDepth());
    forEachQueued([&out](const EngineRequest &r) {
        out.push_back(r);
        return true;
    });
    queue_.clear();
    late_.clear();
    for (int e : queuedExperts_) {
        ExpertSlot &s = slot(e);
        s.queuedPos = -1;
        s.queuedIds.clear();
        s.queuedLive = 0;
    }
    queuedExperts_.clear();
    // The extracted requests complete elsewhere; they no longer count
    // against this engine's in-flight work.
    injectedCount_ -= static_cast<std::int64_t>(out.size());
    return out;
}

std::vector<EngineRequest>
ServingEngine::crashExtract()
{
    std::vector<EngineRequest> out = extractQueued();
    if (busy_) {
        // Abandon the in-flight batch as a ghost batch that completes
        // nothing. Its scheduled events (router, awaited DMA) still
        // fire; if it is executing, the prompt in flight runs to its
        // end and the prompts not yet started (one starting at this
        // tick included) never book traffic, so coe.batch_done moves
        // to that prompt's end. There finishBatch releases the pinned
        // experts and clears busy_.
        if (executing_)
            bookPromptsBefore(eq_.now());
        out.reserve(out.size() + curBatch_.size());
        injectedCount_ -= static_cast<std::int64_t>(curBatch_.size());
        for (EngineRequest &r : curBatch_)
            out.push_back(std::move(r));
        curBatch_.clear();
        if (executing_)
            armBatchDone();
        stats_.inc("crashed_batches");
    }
    return out;
}

bool
ServingEngine::cancelQueued(int id)
{
    QueuePos at = findQueued(id);
    if (at.run == nullptr)
        return false;
    touchDepth(queueDepth() - 1);
    EngineRequest r = at.run->take(at.pos);
    unindexQueued(r.id, r.expert);
    --injectedCount_;
    cancelledQueuedStat_ += 1.0;
    return true;
}

void
ServingEngine::takeQueued(QueuePos at)
{
    curBatch_.push_back(at.run->take(at.pos));
    unindexQueued(curBatch_.back().id, curBatch_.back().expert);
}

void
ServingEngine::finishBatch()
{
    executing_ = false;
    execTotal_ += sim::toSeconds(eq_.now() - execStart_);
    for (int e : curBatchExperts_)
        runtime_.unpin(e);
    curBatchExperts_.clear();

    lastCompletion_ = eq_.now();
    for (const EngineRequest &r : curBatch_) {
        double seconds = sim::toSeconds(eq_.now() - r.arrival);
        if (logCompletions_)
            completionLog_.push_back(
                {r.id, seconds, r.hedgeDuplicate});
        if (r.hedgeDuplicate) {
            // The duplicate's completion is not a request completion:
            // the cluster credits exactly one completion per hedged
            // id (here its injection is un-counted so outstanding()
            // still converges to zero).
            --injectedCount_;
            hedgeCompletionsStat_ += 1.0;
            continue;
        }
        latency_.record(seconds);
        if (latencyMirror_)
            latencyMirror_->record(seconds);
        specStepsTotal_ += r.specSteps;
        ++completedCount_;
        if (onRequestComplete_)
            onRequestComplete_(r);
    }
    std::size_t finished = curBatch_.size();
    curBatch_.clear();
    busy_ = false;
    if (onBatchComplete_)
        onBatchComplete_(static_cast<int>(finished));
    if (queueDepth() > 0)
        formBatch();
}

/**
 * A batch's prompts run back to back: prompt k starts at t_k, holds
 * the pipeline for its modeled compute time AND until its HBM weight
 * streaming drains, and prompt k+1 starts at
 *
 *   t_{k+1} = max(t_k + exec_k * serviceFactor, end of k's traffic)
 *
 * On a contended working tier (prefetch DMA writing behind it) the
 * traffic side finishes later and the slowdown is real, not a
 * closed-form adjustment. Nothing observable happens between two
 * prompts, so the batch is one coe.batch_done event at t_N. Each
 * prompt's traffic is booked lazily, in prompt order and at its own
 * start tick, by whichever comes first: the batch_done event, a DMA
 * about to book this node's HBM, a service-factor change or a crash.
 * Launch and batch_done book every prompt with t_k <= now. The three
 * interrupts book only t_k < now: a prompt starting at the
 * interrupt's own tick has not started yet. A per-prompt event chain
 * would have started it in an event scheduled at t_{k-1}, and fault
 * events, scheduled when the run begins, always ran before it (see
 * docs/ARCHITECTURE.md for the one tie this does not reproduce).
 */
sim::Tick
ServingEngine::promptEnd(const EngineRequest &prompt, sim::Tick start,
                         sim::Tick traffic_end) const
{
    // serviceFactor_ is exactly 1.0 on a healthy node, and x * 1.0 is
    // IEEE-exact, so non-straggler runs schedule identical ticks.
    sim::Tick exec_end = sim::checkedAdd(
        start, sim::fromSeconds(prompt.execSeconds * serviceFactor_),
        "coe.batch_done");
    return std::max(exec_end, traffic_end);
}

void
ServingEngine::bookPromptsBefore(sim::Tick end)
{
    while (nextPrompt_ < curBatch_.size() && promptStart_ < end) {
        const EngineRequest &p = curBatch_[nextPrompt_++];
        promptStart_ = promptEnd(
            p, promptStart_, memsys_.traffic(p.trafficBytes, promptStart_));
    }
}

/**
 * The batch's end if nothing else books HBM from now on. Every booked
 * prompt's traffic ends before the next prompt starts, so querying
 * the unbooked prompts against the current channels is exact.
 */
sim::Tick
ServingEngine::plannedBatchEnd() const
{
    sim::Tick t = promptStart_;
    for (std::size_t k = nextPrompt_; k < curBatch_.size(); ++k) {
        const EngineRequest &p = curBatch_[k];
        t = promptEnd(p, t, memsys_.trafficEnd(p.trafficBytes, t));
    }
    return t;
}

void
ServingEngine::armBatchDone()
{
    sim::Tick end = plannedBatchEnd();
    if (batchDone_.pending()) {
        if (end == batchDoneAt_)
            return;
        batchDone_.cancel();
    }
    batchDoneAt_ = end;
    batchDone_ = eq_.schedule(end, [this]() { onBatchDone(); },
                              "coe.batch_done");
}

void
ServingEngine::onBatchDone()
{
    bookPromptsBefore(eq_.now() + 1);
    // A DMA that booked HBM after the plan can only have delayed the
    // batch: the event fired early, so re-plan and re-arm.
    if (nextPrompt_ < curBatch_.size() || promptStart_ > eq_.now()) {
        armBatchDone();
        return;
    }
    sim::simAssert(promptStart_ == eq_.now(),
                   "serving: coe.batch_done off the booked prompt chain");
    finishBatch();
}

// Launch once the router has decided AND every non-resident expert's
// DMA has landed; the exposed remainder beyond the router is the
// batch's switch stall.
void
ServingEngine::maybeLaunch()
{
    if (!routerDone_ || pendingLoads_ > 0)
        return;
    double stall = std::max(
        0.0, sim::toSeconds(eq_.now() - batchStart_) -
                 costs_.routerSeconds);
    if (stallsMirror_)
        stallsMirror_->record(stall);
    switchTotal_ += stall;
    execStart_ = eq_.now();
    // A ghost batch (crashed before launch) has nothing to execute.
    if (curBatch_.empty()) {
        finishBatch();
        return;
    }
    executing_ = true;
    nextPrompt_ = 0;
    promptStart_ = eq_.now();
    bookPromptsBefore(eq_.now() + 1);
    armBatchDone();
}

void
ServingEngine::formBatch()
{
    if (queueDepth() == 0 || busy_)
        return;
    busy_ = true;
    ++batchCount_;
    // Close the depth integral at the pre-batch depth before the
    // batch drains the queue (no simulated time passes in here).
    touchDepth(queueDepth());

    // The batch is taken straight into curBatch_, empty between
    // batches; it keeps its capacity, so formation allocates nothing.
    const std::size_t cap = static_cast<std::size_t>(cfg_.batch);
    if (!affinity_) {
        while (queueDepth() > 0 && curBatch_.size() < cap)
            takeQueued(oldestQueued());
    } else {
        // Take every queued request for the chosen expert, then
        // backfill spare slots with requests whose experts are already
        // resident (guaranteed-hit co-tenants), then with whatever is
        // oldest so the batch never runs emptier than FIFO would. Each
        // pass selects oldest-first (ids are arrival-ordered), exactly
        // as the historical FIFO walk did, but through the per-expert
        // index so formation cost scales with distinct experts, not
        // queue depth.
        // The chosen expert's queuedPos drops to -1 once its last
        // queued request is taken.
        ExpertSlot &chosen = slot(pickExpert());
        while (chosen.queuedPos >= 0 && curBatch_.size() < cap)
            takeQueued(findQueued(expertOldest(chosen)));
        // Pass 2: oldest requests across resident experts. The
        // resident set cannot change mid-formation, so repeatedly
        // taking the minimum id over resident experts' ordered id sets
        // reproduces the old front-to-back resident scan.
        while (curBatch_.size() < cap) {
            int best_id = -1;
            for (int e : queuedExperts_) {
                if (!runtime_.resident(e))
                    continue;
                int oldest = expertOldest(slot(e));
                if (best_id < 0 || oldest < best_id)
                    best_id = oldest;
            }
            if (best_id < 0)
                break;
            takeQueued(findQueued(best_id));
        }
        // Pass 3: whatever is oldest overall.
        while (queueDepth() > 0 && curBatch_.size() < cap)
            takeQueued(oldestQueued());
    }
    depthMark_ = eq_.now();
    occupancyTotal_ += static_cast<double>(curBatch_.size());

    batchStart_ = eq_.now();
    routerDone_ = false;
    // The previous batch launched only once every load it awaited had
    // landed, so no expert is still awaited.
    sim::simAssert(pendingLoads_ == 0,
                   "serving: batch formed while loads are awaited");

    // The batch's distinct experts in id order, the order both
    // activation passes below must run in.
    for (const EngineRequest &r : curBatch_)
        curBatchExperts_.push_back(r.expert);
    std::sort(curBatchExperts_.begin(), curBatchExperts_.end());
    curBatchExperts_.erase(
        std::unique(curBatchExperts_.begin(), curBatchExperts_.end()),
        curBatchExperts_.end());

    // Per-request accounting: the first request to touch a non-loaded
    // expert is the miss; same-batch co-tenants ride along as hits
    // (matching the synchronous LRU accounting).
    for (int e : curBatchExperts_) {
        if (runtime_.loaded(e)) {
            ExpertSlot &s = slot(e);
            if (s.prefetchReady) {
                s.prefetchReady = false;
                prefetchHitsStat_ += 1.0;
            }
        } else {
            ++missCount_;
            if (runtime_.inFlight(e))
                prefetchPartialHitsStat_ += 1.0;
        }
    }

    // Pass 1: activate (LRU-refresh) and pin every already-resident
    // expert. In-flight ones are promoted to demand priority and
    // awaited; pinning first keeps pass 2's evictions away from this
    // batch's experts.
    for (int e : curBatchExperts_) {
        if (!runtime_.resident(e))
            continue;
        AsyncActivation act = runtime_.activateAsync(e);
        runtime_.pin(e);
        if (act.pending) {
            ExpertSlot &s = slot(e);
            sim::simAssert(s.transfer != mem::kInvalidTransfer,
                           "serving: in-flight expert has no transfer");
            memsys_.promote(s.transfer);
            clearPrefetchOutstanding(s);
            s.awaited = true;
            ++pendingLoads_;
        }
    }
    // Pass 2: demand DMA for the absent experts. Activation may evict
    // cold residents or cancel speculative reservations; pinned and
    // Loading experts are never touched.
    for (int e : curBatchExperts_) {
        if (runtime_.resident(e))
            continue;
        AsyncActivation act = runtime_.activateAsync(e);
        runtime_.pin(e);
        ExpertSlot &s = slot(e);
        s.awaited = true;
        ++pendingLoads_;
        s.transfer = memsys_.load(
            ddrOffset_[static_cast<std::size_t>(e)], act.hbmOffset,
            act.bytesToLoad + act.bytesToWriteBack,
            mem::TransferPriority::Demand,
            [this, e]() { onLoadDone(e); });
    }

    // The demand activations above allocated region space; prefetch
    // reservations are sampled again inside maybePrefetch below.
    samplePeakResident();

    routerTotal_ += costs_.routerSeconds;
    eq_.scheduleIn(sim::fromSeconds(costs_.routerSeconds),
                   [this]() {
                       routerDone_ = true;
                       maybeLaunch();
                   },
                   "coe.router_done");
    maybePrefetch();
}

} // namespace sn40l::coe

#include "coe/coe_runtime.h"

#include "sim/log.h"

namespace sn40l::coe {

CoeRuntime::CoeRuntime(const ExpertZoo &zoo, std::int64_t hbm_region_bytes)
    : zoo_(zoo), region_(hbm_region_bytes, /*alignment=*/1),
      entries_(static_cast<std::size_t>(zoo.size())),
      stats_("coe_runtime"), hitsStat_(stats_.counter("hits")),
      pendingHitsStat_(stats_.counter("pending_hits")),
      missesStat_(stats_.counter("misses")),
      loadBytesStat_(stats_.counter("load_bytes")),
      evictionsStat_(stats_.counter("evictions")),
      writebackBytesStat_(stats_.counter("writeback_bytes")),
      copybackSkippedStat_(stats_.counter("copyback_skipped")),
      prefetchReservationsStat_(stats_.counter("prefetch_reservations")),
      prefetchBytesStat_(stats_.counter("prefetch_bytes")),
      prefetchCancelsStat_(stats_.counter("prefetch_cancels")),
      loadsCompletedStat_(stats_.counter("loads_completed")),
      flushesStat_(stats_.counter("flushes"))
{
    if (static_cast<double>(hbm_region_bytes) < zoo.maxExpertBytes())
        sim::fatal("CoeRuntime: HBM region smaller than largest expert");
}

const CoeRuntime::Resident *
CoeRuntime::find(int expert_id) const
{
    if (expert_id < 0 ||
        static_cast<std::size_t>(expert_id) >= entries_.size())
        return nullptr;
    const Resident &r = entries_[static_cast<std::size_t>(expert_id)];
    return r.present ? &r : nullptr;
}

bool
CoeRuntime::loaded(int expert_id) const
{
    const Resident *r = find(expert_id);
    return r && r->state == ExpertState::Loaded;
}

bool
CoeRuntime::inFlight(int expert_id) const
{
    const Resident *r = find(expert_id);
    return r && r->state != ExpertState::Loaded;
}

CoeRuntime::Resident &
CoeRuntime::entry(int expert_id, const char *why)
{
    if (!find(expert_id))
        sim::panic(std::string("CoeRuntime: ") + why +
                   " on non-resident expert " + std::to_string(expert_id));
    return at(expert_id);
}

ExpertState
CoeRuntime::state(int expert_id) const
{
    return const_cast<CoeRuntime *>(this)->entry(expert_id, "state").state;
}

int
CoeRuntime::pinCount(int expert_id) const
{
    return const_cast<CoeRuntime *>(this)->entry(expert_id, "pinCount").pins;
}

void
CoeRuntime::pin(int expert_id)
{
    ++entry(expert_id, "pin").pins;
}

void
CoeRuntime::unpin(int expert_id)
{
    Resident &r = entry(expert_id, "unpin");
    if (r.pins <= 0)
        sim::panic("CoeRuntime: unpin of unpinned expert " +
                   std::to_string(expert_id));
    --r.pins;
}

void
CoeRuntime::linkLru(int expert_id, bool most_recent)
{
    Resident &r = at(expert_id);
    if (most_recent) {
        r.moreRecent = -1;
        r.lessRecent = mostRecent_;
        if (mostRecent_ >= 0)
            at(mostRecent_).moreRecent = expert_id;
        else
            leastRecent_ = expert_id;
        mostRecent_ = expert_id;
    } else {
        r.lessRecent = -1;
        r.moreRecent = leastRecent_;
        if (leastRecent_ >= 0)
            at(leastRecent_).lessRecent = expert_id;
        else
            mostRecent_ = expert_id;
        leastRecent_ = expert_id;
    }
}

void
CoeRuntime::unlinkLru(int expert_id)
{
    Resident &r = at(expert_id);
    if (r.moreRecent >= 0)
        at(r.moreRecent).lessRecent = r.lessRecent;
    else
        mostRecent_ = r.lessRecent;
    if (r.lessRecent >= 0)
        at(r.lessRecent).moreRecent = r.moreRecent;
    else
        leastRecent_ = r.moreRecent;
    r.moreRecent = -1;
    r.lessRecent = -1;
}

void
CoeRuntime::insertEntry(int expert_id, std::int64_t offset,
                        ExpertState state, bool most_recent)
{
    Resident &r = at(expert_id);
    r.present = true;
    r.offset = offset;
    r.state = state;
    r.pins = 0;
    linkLru(expert_id, most_recent);
    ++residentCount_;
}

void
CoeRuntime::dropEntry(int expert_id)
{
    Resident &r = at(expert_id);
    region_.free(r.offset);
    unlinkLru(expert_id);
    r.present = false;
    --residentCount_;
}

std::int64_t
CoeRuntime::allocateEvicting(std::int64_t need, int &evictions,
                             double &bytes_to_write_back)
{
    for (;;) {
        if (auto offset = region_.allocate(need))
            return *offset;

        // Walk victims least-recently-used first. Pinned and Loading
        // experts are untouchable; prefetch reservations are asked to
        // cancel; Loaded experts evict.
        bool freed = false;
        for (int id = leastRecent_; id >= 0; id = at(id).moreRecent) {
            Resident &r = at(id);
            if (r.pins > 0 || r.state == ExpertState::Loading)
                continue;
            if (r.state == ExpertState::PrefetchReserved) {
                if (prefetchCancelHook_ && !prefetchCancelHook_(id)) {
                    // The speculation already left the DMA queue; it
                    // will land, so it is as untouchable as a demand
                    // load.
                    r.state = ExpertState::Loading;
                    continue;
                }
                prefetchCancelsStat_ += 1.0;
                dropEntry(id);
                freed = true;
                break;
            }
            const ExpertModel &e = zoo_.expert(id);
            ++evictions;
            evictionsStat_ += 1.0;
            if (e.mutableBytes > 0.0) {
                bytes_to_write_back += e.mutableBytes;
                writebackBytesStat_ += e.mutableBytes;
            } else {
                // Read-only weights: skip the copy-back (Section V-B).
                copybackSkippedStat_ += 1.0;
            }
            if (evictionHook_)
                evictionHook_(id);
            dropEntry(id);
            freed = true;
            break;
        }
        if (!freed)
            sim::fatal("CoeRuntime: expert region exhausted by pinned and "
                       "in-flight experts (region too small for the "
                       "concurrent working set)");
    }
}

Activation
CoeRuntime::activate(int expert_id)
{
    Activation activation;
    const ExpertModel &expert = zoo_.expert(expert_id);

    Resident &r = at(expert_id);
    if (r.present) {
        if (r.state != ExpertState::Loaded)
            sim::panic("CoeRuntime: synchronous activate() on expert " +
                       std::to_string(expert_id) +
                       " with a transfer in flight (mixing the sync and "
                       "async protocols)");
        // Hit: refresh LRU position.
        unlinkLru(expert_id);
        linkLru(expert_id, /*most_recent=*/true);
        activation.hit = true;
        hitsStat_ += 1.0;
        return activation;
    }

    missesStat_ += 1.0;
    std::int64_t need = static_cast<std::int64_t>(expert.bytes);
    std::int64_t offset = allocateEvicting(need, activation.evictions,
                                           activation.bytesToWriteBack);
    insertEntry(expert_id, offset, ExpertState::Loaded,
                /*most_recent=*/true);
    activation.bytesToLoad = expert.bytes;
    loadBytesStat_ += expert.bytes;
    return activation;
}

AsyncActivation
CoeRuntime::activateAsync(int expert_id)
{
    AsyncActivation activation;
    const ExpertModel &expert = zoo_.expert(expert_id);

    Resident &r = at(expert_id);
    if (r.present) {
        unlinkLru(expert_id);
        linkLru(expert_id, /*most_recent=*/true);
        activation.hbmOffset = r.offset;
        if (r.state == ExpertState::Loaded) {
            activation.hit = true;
            hitsStat_ += 1.0;
        } else {
            // A demand load or speculation already owns the slot; the
            // caller waits on (and may promote) that transfer.
            activation.pending = true;
            pendingHitsStat_ += 1.0;
        }
        return activation;
    }

    missesStat_ += 1.0;
    std::int64_t need = static_cast<std::int64_t>(expert.bytes);
    std::int64_t offset = allocateEvicting(need, activation.evictions,
                                           activation.bytesToWriteBack);
    insertEntry(expert_id, offset, ExpertState::Loading,
                /*most_recent=*/true);
    activation.bytesToLoad = expert.bytes;
    activation.hbmOffset = offset;
    loadBytesStat_ += expert.bytes;
    return activation;
}

std::optional<AsyncActivation>
CoeRuntime::beginPrefetch(int expert_id)
{
    if (resident(expert_id))
        return std::nullopt;

    const ExpertModel &expert = zoo_.expert(expert_id);
    std::int64_t need = static_cast<std::int64_t>(expert.bytes);
    // Opportunistic: free space only, no eviction on speculation.
    auto offset = region_.allocate(need);
    if (!offset)
        return std::nullopt;

    // Speculations enter at the cold end of the LRU so they are the
    // first reclaimed under pressure until a batch actually uses them.
    insertEntry(expert_id, *offset, ExpertState::PrefetchReserved,
                /*most_recent=*/false);

    AsyncActivation activation;
    activation.pending = true;
    activation.bytesToLoad = expert.bytes;
    activation.hbmOffset = *offset;
    prefetchReservationsStat_ += 1.0;
    prefetchBytesStat_ += expert.bytes;
    return activation;
}

void
CoeRuntime::completeLoad(int expert_id)
{
    Resident &r = entry(expert_id, "completeLoad");
    if (r.state == ExpertState::Loaded)
        sim::panic("CoeRuntime: completeLoad on already-loaded expert " +
                   std::to_string(expert_id));
    r.state = ExpertState::Loaded;
    loadsCompletedStat_ += 1.0;
}

int
CoeRuntime::flushUnpinned()
{
    int dropped = 0;
    for (int id = 0; id < static_cast<int>(entries_.size()); ++id) {
        const Resident &r = at(id);
        if (!r.present || r.state != ExpertState::Loaded || r.pins > 0)
            continue;
        if (evictionHook_)
            evictionHook_(id);
        flushesStat_ += 1.0;
        dropEntry(id);
        ++dropped;
    }
    return dropped;
}

void
CoeRuntime::cancelPrefetch(int expert_id)
{
    Resident &r = entry(expert_id, "cancelPrefetch");
    if (r.state != ExpertState::PrefetchReserved || r.pins > 0)
        sim::panic("CoeRuntime: cancelPrefetch on pinned or non-speculative "
                   "expert " + std::to_string(expert_id));
    prefetchCancelsStat_ += 1.0;
    dropEntry(expert_id);
}

} // namespace sn40l::coe

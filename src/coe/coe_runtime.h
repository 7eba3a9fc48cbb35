/**
 * @file
 * The CoE runtime (Section V-B): a dynamic-linker-style manager that
 * keeps as many experts resident in HBM as fit, activates experts on
 * demand by copying their memory segments from the backing tier, and
 * evicts with LRU. Read-only weight segments skip the copy-back on
 * eviction.
 *
 * Two protocols share the LRU state:
 *
 *  - Synchronous activate(): the legacy closed-form path. The caller
 *    charges the returned byte counts through its own copy estimate.
 *
 *  - Asynchronous activateAsync() / beginPrefetch() / completeLoad():
 *    the event-driven path. An activation reserves region space and
 *    hands back the destination offset; the caller streams the bytes
 *    through mem::MemorySystem and reports completion. Experts that
 *    are loading or pinned by an executing batch are never evicted;
 *    speculative prefetch reservations are cancelled under eviction
 *    pressure (via the cancel hook) before any loaded expert is
 *    dropped.
 */

#ifndef SN40L_COE_COE_RUNTIME_H
#define SN40L_COE_COE_RUNTIME_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "coe/expert.h"
#include "mem/free_list_allocator.h"
#include "sim/stats.h"

namespace sn40l::coe {

/**
 * Result of a synchronous activation decision (the transfer itself is
 * charged by the caller through its platform's copy channel).
 */
struct Activation
{
    bool hit = false;
    double bytesToLoad = 0.0;    ///< backing-tier -> HBM
    double bytesToWriteBack = 0.0; ///< evicted mutable state
    int evictions = 0;
};

/** Lifecycle of a resident expert on the async protocol. */
enum class ExpertState : std::uint8_t {
    Loaded,           ///< segments fully in HBM, runnable
    Loading,          ///< demand DMA in flight; pinned against eviction
    PrefetchReserved, ///< speculative reservation; cancellable
};

/** Result of an asynchronous activation or prefetch reservation. */
struct AsyncActivation
{
    bool hit = false;     ///< already Loaded; nothing to stream
    bool pending = false; ///< a transfer is already reserved/in flight
    double bytesToLoad = 0.0;
    double bytesToWriteBack = 0.0; ///< evicted mutable state
    int evictions = 0;
    std::int64_t hbmOffset = -1; ///< destination in the expert region
};

class CoeRuntime
{
  public:
    /**
     * @param zoo the expert set (ids 0..zoo.size() - 1); the runtime
     *        keeps a reference, and the zoo must not grow after this.
     * @param hbm_region_bytes HBM set aside for expert segments
     *        (the "Expert Region" of Fig 9).
     */
    CoeRuntime(const ExpertZoo &zoo, std::int64_t hbm_region_bytes);

    CoeRuntime(const CoeRuntime &) = delete;
    CoeRuntime &operator=(const CoeRuntime &) = delete;

    // ----------------------------------------- synchronous protocol

    /**
     * Request @p expert_id. On a hit the expert is refreshed in LRU
     * order and nothing moves. On a miss, LRU experts are evicted
     * until the new expert's segments fit, and the expert loads from
     * the backing tier.
     *
     * Throws FatalError if the expert can never fit (larger than the
     * whole region).
     */
    Activation activate(int expert_id);

    // ---------------------------------------- asynchronous protocol

    /**
     * Demand-activate @p expert_id without blocking. Outcomes:
     *  - hit: Loaded already; refresh LRU and run.
     *  - pending: a transfer (demand or speculative) already owns the
     *    region slot; wait for its completion (promote it if queued).
     *  - otherwise: space was reserved (evicting unpinned experts,
     *    cancelling prefetch reservations under pressure) and the
     *    expert is now Loading. Stream bytesToLoad + bytesToWriteBack
     *    and call completeLoad() when the DMA finishes.
     *
     * Throws FatalError if space cannot be freed because everything
     * else is pinned or loading.
     */
    AsyncActivation activateAsync(int expert_id);

    /**
     * Reserve space for a speculative DDR->HBM prefetch. Prefetch is
     * opportunistic: it never evicts, so this returns std::nullopt
     * when the expert is already resident or no free block fits.
     */
    std::optional<AsyncActivation> beginPrefetch(int expert_id);

    /** The DMA for @p expert_id landed: mark it runnable. */
    void completeLoad(int expert_id);

    /**
     * Drop an unissued prefetch reservation and free its bytes.
     * Panics unless the expert is PrefetchReserved and unpinned.
     */
    void cancelPrefetch(int expert_id);

    /**
     * Drop every Loaded, unpinned expert (a cold restart: a cluster
     * node rejoining after a drain re-warms from live traffic).
     * Loading and PrefetchReserved entries survive — their DMA will
     * land — as do pinned experts. Fires the eviction hook per drop,
     * in expert-id order.
     * @return the number of experts flushed.
     */
    int flushUnpinned();

    /**
     * Pin @p expert_id for an executing batch: pinned experts are
     * never evicted, whatever their LRU position. Pins nest.
     */
    void pin(int expert_id);
    void unpin(int expert_id);

    /**
     * Called when eviction pressure wants to reclaim a prefetch
     * reservation: must try to cancel the underlying transfer and
     * return true on success (the reservation is then dropped) or
     * false if the DMA already issued (the expert transitions to
     * Loading and survives). Without a hook, reservations are
     * reclaimed unconditionally.
     */
    void setPrefetchCancelHook(std::function<bool(int)> hook)
    {
        prefetchCancelHook_ = std::move(hook);
    }

    /** Observe LRU evictions of Loaded experts (bookkeeping hook). */
    void setEvictionHook(std::function<void(int)> hook)
    {
        evictionHook_ = std::move(hook);
    }

    bool resident(int expert_id) const { return find(expert_id); }
    /** Resident and fully loaded (state Loaded). */
    bool loaded(int expert_id) const;
    /** Resident with a transfer reserved or in flight. */
    bool inFlight(int expert_id) const;
    ExpertState state(int expert_id) const; ///< panics if not resident
    int pinCount(int expert_id) const;

    int residentCount() const { return residentCount_; }

    std::int64_t regionBytes() const { return region_.capacity(); }
    std::int64_t freeRegionBytes() const { return region_.freeBytes(); }

    sim::StatSet &stats() { return stats_; }
    const sim::StatSet &stats() const { return stats_; }

  private:
    /**
     * One expert's residency record. The LRU order is a doubly linked
     * list threaded through the records (expert ids as links, -1 at
     * either end), so no activation allocates.
     */
    struct Resident
    {
        std::int64_t offset = 0;
        int moreRecent = -1; ///< neighbour toward the MRU end
        int lessRecent = -1; ///< neighbour toward the LRU end
        int pins = 0;
        ExpertState state = ExpertState::Loaded;
        bool present = false;
    };

    /** Evict (or cancel) entries until @p need bytes allocate. */
    std::int64_t allocateEvicting(std::int64_t need, int &evictions,
                                  double &bytes_to_write_back);
    /** Make @p expert_id resident at @p offset, linked at the MRU end,
     *  or at the LRU end when @p most_recent is false. */
    void insertEntry(int expert_id, std::int64_t offset, ExpertState state,
                     bool most_recent);
    void dropEntry(int expert_id);
    void linkLru(int expert_id, bool most_recent);
    void unlinkLru(int expert_id);
    /** The record of a resident expert, or nullptr. */
    const Resident *find(int expert_id) const;
    /** The resident record; panics naming @p why when absent. */
    Resident &entry(int expert_id, const char *why);
    Resident &at(int expert_id)
    {
        return entries_[static_cast<std::size_t>(expert_id)];
    }

    const ExpertZoo &zoo_;
    mem::FreeListAllocator region_;
    /** Residency records, dense by expert id. */
    std::vector<Resident> entries_;
    int mostRecent_ = -1;  ///< LRU list head, -1 when empty
    int leastRecent_ = -1; ///< LRU list tail, -1 when empty
    int residentCount_ = 0;
    std::function<bool(int)> prefetchCancelHook_;
    std::function<void(int)> evictionHook_;
    sim::StatSet stats_;
    // Counters resolved once (StatSet::counter): activations run per
    // batch and per replayed request.
    double &hitsStat_;
    double &pendingHitsStat_;
    double &missesStat_;
    double &loadBytesStat_;
    double &evictionsStat_;
    double &writebackBytesStat_;
    double &copybackSkippedStat_;
    double &prefetchReservationsStat_;
    double &prefetchBytesStat_;
    double &prefetchCancelsStat_;
    double &loadsCompletedStat_;
    double &flushesStat_;
};

} // namespace sn40l::coe

#endif // SN40L_COE_COE_RUNTIME_H

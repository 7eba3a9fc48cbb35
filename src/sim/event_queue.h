/**
 * @file
 * Discrete-event simulation core.
 *
 * The EventQueue is the spine of the whole simulator: every hardware
 * model (memory channels, DMA engines, kernel launches, RDN transfers)
 * advances time exclusively by scheduling callbacks here. Events at
 * the same tick execute in scheduling order (FIFO), which makes runs
 * fully deterministic.
 *
 * The implementation is built for million-event runs: event state
 * lives in a recycling slab of pooled slots, callbacks are stored
 * inline (sim::InlineCallback), cancellation handles are
 * generation-counted slot indices, and the pending set is a flat
 * binary heap of 16-byte entries. The common schedule/fire cycle
 * performs no heap allocation once the slab and heap have grown to the
 * run's working set.
 */

#ifndef SN40L_SIM_EVENT_QUEUE_H
#define SN40L_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/ticks.h"

namespace sn40l::sim {

class EventQueue
{
  public:
    using Callback = InlineCallback;

    /**
     * Cancellation handle for a scheduled event. Handles are cheap to
     * copy; cancelling an already-run or already-cancelled event is a
     * harmless no-op. A handle holds a generation-counted index into
     * the queue's slot pool, so a stale handle whose slot has been
     * recycled by a later event is inert rather than dangling.
     *
     * Lifetime: a handle refers into its EventQueue and must not be
     * used after that queue is destroyed (every model component in
     * this codebase shares the run's queue, which outlives them all).
     */
    class Handle
    {
      public:
        Handle() = default;

        /** @return true if the event was pending and is now cancelled. */
        bool cancel();

        /** @return true if the event has not yet run nor been cancelled. */
        bool pending() const;

      private:
        friend class EventQueue;
        Handle(EventQueue *eq, std::uint32_t slot, std::uint32_t gen)
            : eq_(eq), slot_(slot), gen_(gen) {}
        EventQueue *eq_ = nullptr;
        std::uint32_t slot_ = 0;
        std::uint32_t gen_ = 0;
    };

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick_; }

    /**
     * Schedule @p cb to run at absolute time @p when. @p name is a
     * diagnostic label for panic messages; it must be a literal or
     * otherwise outlive the event. Scheduling in the past is a
     * simulator bug and panics.
     */
    Handle schedule(Tick when, Callback cb, const char *name = "");

    /**
     * Schedule @p cb to run @p delta ticks from now. A time past
     * kMaxTick (~9.2e6 s) is a FatalError naming @p name.
     */
    Handle scheduleIn(Tick delta, Callback cb, const char *name = "");

    /**
     * Run events until the queue drains or the next event would be
     * after @p limit (exclusive upper bound semantics: events at
     * exactly @p limit still run).
     *
     * @return number of events executed.
     */
    std::uint64_t run(Tick limit = kMaxTick);

    /** Execute exactly one event if one is pending. @return executed? */
    bool step();

    bool empty() const;
    std::size_t pendingCount() const { return pendingCount_; }
    std::uint64_t executedCount() const { return executedCount_; }

    /**
     * Slots currently allocated in the recycling pool (pending events
     * plus cancelled-but-unreaped ones). Exposed so tests can assert
     * that slot recycling keeps the pool at the live working set
     * instead of growing with total events scheduled.
     */
    std::size_t slabSlots() const { return pool_.size(); }

    /** Drop all pending events and rewind time to zero. */
    void reset();

  private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    struct Slot
    {
        Callback cb;
        const char *name = "";
        std::uint32_t gen = 0;
        std::uint32_t nextFree = kNoSlot;
        bool live = false;
        bool cancelled = false;
    };

    /** Heap entry: 16 bytes, ordered by (when, seq) earliest-first. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq : 40; ///< FIFO tie-break; 1T events per run
        std::uint64_t slot : 24;
    };

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t idx);
    void heapPush(HeapEntry entry);
    HeapEntry heapPop();

    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executedCount_ = 0;
    std::size_t pendingCount_ = 0;
    std::vector<Slot> pool_;
    std::uint32_t freeHead_ = kNoSlot;
    std::vector<HeapEntry> heap_;
};

} // namespace sn40l::sim

#endif // SN40L_SIM_EVENT_QUEUE_H

#include "sim/event_queue.h"

#include <string>
#include <utility>

#include "sim/log.h"

namespace sn40l::sim {

bool
EventQueue::Handle::cancel()
{
    if (eq_ == nullptr || slot_ >= eq_->pool_.size())
        return false;
    Slot &slot = eq_->pool_[slot_];
    if (!slot.live || slot.gen != gen_ || slot.cancelled)
        return false;
    slot.cancelled = true;
    // The callback can be released immediately; the heap entry is
    // reaped lazily when it reaches the top.
    slot.cb.reset();
    return true;
}

bool
EventQueue::Handle::pending() const
{
    if (eq_ == nullptr || slot_ >= eq_->pool_.size())
        return false;
    const Slot &slot = eq_->pool_[slot_];
    return slot.live && slot.gen == gen_ && !slot.cancelled;
}

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead_ != kNoSlot) {
        std::uint32_t idx = freeHead_;
        freeHead_ = pool_[idx].nextFree;
        pool_[idx].live = true;
        pool_[idx].cancelled = false;
        return idx;
    }
    if (pool_.size() >= (1u << 24))
        panic("EventQueue: more than 2^24 concurrently pending events");
    pool_.emplace_back();
    pool_.back().live = true;
    return static_cast<std::uint32_t>(pool_.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t idx)
{
    Slot &slot = pool_[idx];
    slot.cb.reset();
    slot.name = "";
    slot.live = false;
    slot.cancelled = false;
    ++slot.gen; // invalidate outstanding handles
    slot.nextFree = freeHead_;
    freeHead_ = idx;
}

/**
 * Flat binary min-heap on (when, seq). Hand-rolled sift instead of
 * std::push_heap/pop_heap so the entry is moved into its final
 * position in one pass.
 */
void
EventQueue::heapPush(HeapEntry entry)
{
    std::size_t i = heap_.size();
    heap_.push_back(entry);
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        const HeapEntry &p = heap_[parent];
        if (p.when < entry.when ||
            (p.when == entry.when && p.seq < entry.seq))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = entry;
}

EventQueue::HeapEntry
EventQueue::heapPop()
{
    HeapEntry top = heap_.front();
    HeapEntry last = heap_.back();
    heap_.pop_back();
    std::size_t n = heap_.size();
    if (n > 0) {
        std::size_t i = 0;
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            std::size_t right = child + 1;
            if (right < n &&
                (heap_[right].when < heap_[child].when ||
                 (heap_[right].when == heap_[child].when &&
                  heap_[right].seq < heap_[child].seq)))
                child = right;
            if (last.when < heap_[child].when ||
                (last.when == heap_[child].when &&
                 last.seq < heap_[child].seq))
                break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = last;
    }
    return top;
}

EventQueue::Handle
EventQueue::schedule(Tick when, Callback cb, const char *name)
{
    if (when < curTick_) {
        panic("EventQueue: scheduling event '" + std::string(name) +
              "' at tick " + std::to_string(when) + " in the past (now " +
              std::to_string(curTick_) + ")");
    }
    if (!cb)
        panic("EventQueue: scheduling empty callback '" +
              std::string(name) + "'");

    std::uint32_t idx = allocSlot();
    Slot &slot = pool_[idx];
    slot.cb = std::move(cb);
    slot.name = name;

    if (nextSeq_ >= (1ULL << 40))
        panic("EventQueue: sequence counter exhausted (2^40 events); "
              "same-tick FIFO order would silently break");
    HeapEntry entry;
    entry.when = when;
    entry.seq = nextSeq_++;
    entry.slot = idx;
    heapPush(entry);
    ++pendingCount_;
    return Handle(this, idx, slot.gen);
}

EventQueue::Handle
EventQueue::scheduleIn(Tick delta, Callback cb, const char *name)
{
    if (delta < 0)
        panic("EventQueue: negative delta for event '" +
              std::string(name) + "'");
    // A validated duration can still carry a late event past the
    // Tick range: a user error, not a wrapped tick.
    if (delta > kMaxTick - curTick_)
        fatal("EventQueue: event '" + std::string(name) +
              "' would run past the simulated horizon (~9.2e6 s, the "
              "end of the Tick range)");
    return schedule(curTick_ + delta, std::move(cb), name);
}

bool
EventQueue::step()
{
    while (!heap_.empty()) {
        HeapEntry top = heapPop();
        --pendingCount_;
        std::uint32_t idx = static_cast<std::uint32_t>(top.slot);
        Slot &slot = pool_[idx];
        if (slot.cancelled) {
            freeSlot(idx);
            continue;
        }
        curTick_ = top.when;
        // Move the callback out and recycle the slot before invoking:
        // the callback may schedule new events, which can reuse (or
        // grow past) this slot.
        Callback cb = std::move(slot.cb);
        freeSlot(idx);
        ++executedCount_;
        cb();
        return true;
    }
    return false;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t executed = 0;
    while (!heap_.empty()) {
        // Reap cancelled entries first so the limit check below always
        // sees a live event.
        const HeapEntry &top = heap_.front();
        if (pool_[top.slot].cancelled) {
            freeSlot(static_cast<std::uint32_t>(top.slot));
            heapPop();
            --pendingCount_;
            continue;
        }
        if (top.when > limit)
            break;
        if (step())
            ++executed;
    }
    return executed;
}

bool
EventQueue::empty() const
{
    return pendingCount_ == 0;
}

void
EventQueue::reset()
{
    for (const HeapEntry &entry : heap_)
        freeSlot(static_cast<std::uint32_t>(entry.slot));
    heap_.clear();
    pendingCount_ = 0;
    curTick_ = 0;
}

} // namespace sn40l::sim

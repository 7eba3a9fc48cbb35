/**
 * @file
 * Small-buffer-optimized callable for the simulation hot path.
 *
 * Every event the EventQueue fires carries a callback. std::function
 * heap-allocates as soon as a lambda captures more than a couple of
 * words, which puts an allocator round-trip on the schedule/fire cycle
 * of every simulated event. InlineCallback stores the callable in a
 * fixed in-object buffer (falling back to the heap only for outsized
 * captures), is move-only (an event fires exactly once, so nothing
 * ever needs to copy one), and dispatches through a static vtable of
 * three function pointers instead of RTTI machinery.
 */

#ifndef SN40L_SIM_CALLBACK_H
#define SN40L_SIM_CALLBACK_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace sn40l::sim {

class InlineCallback
{
  public:
    /** Captures up to this many bytes live in the object itself. */
    static constexpr std::size_t kInlineBytes = 48;

    InlineCallback() = default;
    InlineCallback(std::nullptr_t) {} // NOLINT: mirrors std::function

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    InlineCallback(F &&fn) // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
            vt_ = inlineVTable<Fn>();
        } else {
            *reinterpret_cast<Fn **>(buf_) = new Fn(std::forward<F>(fn));
            vt_ = heapVTable<Fn>();
        }
    }

    InlineCallback(InlineCallback &&other) noexcept { moveFrom(other); }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    explicit operator bool() const { return vt_ != nullptr; }

    void
    operator()()
    {
        vt_->invoke(buf_);
    }

    void
    reset()
    {
        if (vt_ != nullptr) {
            vt_->destroy(buf_);
            vt_ = nullptr;
        }
    }

  private:
    struct VTable
    {
        void (*invoke)(void *self);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *self);
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static void
    invokeInline(void *self)
    {
        (*static_cast<Fn *>(self))();
    }

    template <typename Fn>
    static void
    relocateInline(void *src, void *dst) noexcept
    {
        Fn *fn = static_cast<Fn *>(src);
        ::new (dst) Fn(std::move(*fn));
        fn->~Fn();
    }

    template <typename Fn>
    static void
    destroyInline(void *self)
    {
        static_cast<Fn *>(self)->~Fn();
    }

    template <typename Fn>
    static const VTable *
    inlineVTable()
    {
        static const VTable vt = {&invokeInline<Fn>, &relocateInline<Fn>,
                                  &destroyInline<Fn>};
        return &vt;
    }

    template <typename Fn>
    static void
    invokeHeap(void *self)
    {
        (**static_cast<Fn **>(self))();
    }

    template <typename Fn>
    static void
    relocateHeap(void *src, void *dst) noexcept
    {
        *static_cast<Fn **>(dst) = *static_cast<Fn **>(src);
    }

    template <typename Fn>
    static void
    destroyHeap(void *self)
    {
        delete *static_cast<Fn **>(self);
    }

    template <typename Fn>
    static const VTable *
    heapVTable()
    {
        static const VTable vt = {&invokeHeap<Fn>, &relocateHeap<Fn>,
                                  &destroyHeap<Fn>};
        return &vt;
    }

    void
    moveFrom(InlineCallback &other) noexcept
    {
        vt_ = other.vt_;
        if (vt_ != nullptr) {
            vt_->relocate(other.buf_, buf_);
            other.vt_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const VTable *vt_ = nullptr;
};

/**
 * Callbacks parked by slot until an event fires. A completion event
 * that must run a caller's callback captures {owner, slot} instead of
 * the callback itself — nesting one InlineCallback inside another
 * would spill to the heap on every schedule — and freed slots are
 * reused, so parking allocates nothing in steady state.
 */
class CallbackSlots
{
  public:
    std::uint32_t
    park(InlineCallback cb)
    {
        if (free_.empty()) {
            slots_.push_back(std::move(cb));
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        std::uint32_t slot = free_.back();
        free_.pop_back();
        slots_[slot] = std::move(cb);
        return slot;
    }

    /**
     * Remove and return the callback in @p slot. The slot is free
     * again before the caller invokes it, so the callback may park
     * another.
     */
    InlineCallback
    take(std::uint32_t slot)
    {
        InlineCallback cb = std::move(slots_[slot]);
        free_.push_back(slot);
        return cb;
    }

    /** Callbacks parked and not yet taken. */
    std::size_t parked() const { return slots_.size() - free_.size(); }

  private:
    std::vector<InlineCallback> slots_;
    std::vector<std::uint32_t> free_;
};

} // namespace sn40l::sim

#endif // SN40L_SIM_CALLBACK_H

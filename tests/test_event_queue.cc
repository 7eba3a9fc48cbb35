/** @file Unit tests for the discrete-event simulation core. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/log.h"

using namespace sn40l;
using sim::EventQueue;
using sim::Tick;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.run(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() {
        ++fired;
        eq.scheduleIn(5, [&]() {
            ++fired;
            EXPECT_EQ(eq.now(), 15);
        });
    });
    EXPECT_EQ(eq.run(), 2u);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.run();
    EXPECT_THROW(eq.schedule(5, []() {}), sim::SimPanic);
    EXPECT_THROW(eq.scheduleIn(-1, []() {}), sim::SimPanic);
}

TEST(EventQueue, ScheduleInPastTheTickRangeIsFatal)
{
    EventQueue eq;
    Tick half = sim::kMaxTick / 2 + 1;
    eq.schedule(half, []() {});
    eq.run();
    // The largest delta that still fits is accepted.
    EXPECT_NO_THROW(eq.scheduleIn(sim::kMaxTick - half, []() {}));
    try {
        eq.scheduleIn(half, []() {}, "test.late");
        FAIL() << "expected a FatalError";
    } catch (const sim::FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("'test.late'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("9.2e6 s"), std::string::npos) << msg;
    }
    EXPECT_EQ(eq.pendingCount(), 1u);
}

namespace {

/** Expect @p fn to throw a FatalError whose message has every needle. */
template <typename Fn>
void
expectFatalNaming(Fn fn, const std::vector<std::string> &needles)
{
    try {
        fn();
        FAIL() << "expected a FatalError naming " << needles.front();
    } catch (const sim::FatalError &e) {
        std::string msg = e.what();
        for (const std::string &n : needles)
            EXPECT_NE(msg.find(n), std::string::npos) << msg;
    }
}

} // namespace

TEST(Ticks, FromSecondsRejectsNonFiniteAndOutOfRange)
{
    EXPECT_EQ(sim::fromSeconds(1.5), 3 * sim::kTicksPerSec / 2);
    EXPECT_EQ(sim::fromSeconds(-2.0), -2 * sim::kTicksPerSec);
    EXPECT_EQ(sim::fromSeconds(9.2e6), 9'200'000 * sim::kTicksPerSec);
    const double inf = std::numeric_limits<double>::infinity();
    for (double s : {std::nan(""), inf, -inf, 9.3e6, -9.3e6, 1e300})
        expectFatalNaming([s]() { sim::fromSeconds(s); },
                          {"sim::fromSeconds", "9.2e6 s"});
}

TEST(Ticks, SubSecondConversionsRejectNonFiniteAndOutOfRange)
{
    struct Row
    {
        sim::Tick (*from)(double);
        const char *name;
        sim::Tick unit; ///< ticks per unit
    };
    const Row rows[] = {{sim::fromPs, "sim::fromPs", sim::kTicksPerPs},
                        {sim::fromNs, "sim::fromNs", sim::kTicksPerNs},
                        {sim::fromUs, "sim::fromUs", sim::kTicksPerUs},
                        {sim::fromMs, "sim::fromMs", sim::kTicksPerMs}};
    const double inf = std::numeric_limits<double>::infinity();
    for (const Row &r : rows) {
        SCOPED_TRACE(r.name);
        const double per_sec = static_cast<double>(sim::kTicksPerSec / r.unit);
        EXPECT_EQ(r.from(2.5 * per_sec), 5 * sim::kTicksPerSec / 2);
        EXPECT_EQ(r.from(9.2e6 * per_sec), 9'200'000 * sim::kTicksPerSec);
        for (double v : {std::nan(""), inf, -inf, 9.3e6 * per_sec, 1e300})
            expectFatalNaming([&r, v]() { r.from(v); },
                              {r.name, "9.2e6 s"});
    }
}

TEST(Ticks, TransferTicksRejectsSpansPastTheTickRange)
{
    EXPECT_EQ(sim::transferTicks(0.0, 1e9), 0);
    EXPECT_EQ(sim::transferTicks(1e9, 1e9), sim::kTicksPerSec);
    EXPECT_EQ(sim::transferTicks(1e-30, 1e9), 1); // rounds up
    const double inf = std::numeric_limits<double>::infinity();
    for (double bytes : {std::nan(""), inf, 1e300})
        expectFatalNaming([bytes]() { sim::transferTicks(bytes, 1e9); },
                          {"sim::transferTicks", "9.2e6 s"});
    // 1 TB at 1 byte/s is ~1e12 s, far past the horizon.
    expectFatalNaming([]() { sim::transferTicks(1e12, 1.0); },
                      {"sim::transferTicks", "9.2e6 s"});
}

TEST(Ticks, CheckedAddNamesTheEventAndTheHorizon)
{
    EXPECT_EQ(sim::checkedAdd(sim::kMaxTick - 5, 5, "test.edge"),
              sim::kMaxTick);
    expectFatalNaming(
        []() { sim::checkedAdd(sim::kMaxTick - 5, 6, "coe.batch_done"); },
        {"'coe.batch_done'", "9.2e6 s"});
}

TEST(EventQueue, EmptyCallbackPanics)
{
    EventQueue eq;
    EXPECT_THROW(eq.schedule(1, EventQueue::Callback()), sim::SimPanic);
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });
    eq.schedule(30, [&]() { ++fired; });

    // Events at exactly the limit still run.
    EXPECT_EQ(eq.run(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20);
    EXPECT_FALSE(eq.empty());

    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    int fired = 0;
    auto handle = eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });

    EXPECT_TRUE(handle.pending());
    EXPECT_TRUE(handle.cancel());
    EXPECT_FALSE(handle.pending());
    EXPECT_FALSE(handle.cancel()); // double cancel is a no-op

    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 20);
}

TEST(EventQueue, CancelledEventAtLimitBoundaryDoesNotLeakLaterEvent)
{
    EventQueue eq;
    int fired = 0;
    auto handle = eq.schedule(10, [&]() { ++fired; });
    eq.schedule(50, [&]() { ++fired; });
    handle.cancel();

    // The cancelled tick-10 event must not let the tick-50 event run
    // under a limit of 20.
    EXPECT_EQ(eq.run(20), 0u);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.schedule(20, []() {});
    eq.run(10);
    eq.reset();
    EXPECT_EQ(eq.now(), 0);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.run(), 0u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() { ++fired; });
    eq.schedule(2, [&]() { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsInert)
{
    EventQueue eq;
    int fired_a = 0, fired_b = 0;
    auto stale = eq.schedule(10, [&]() { ++fired_a; });
    eq.run();
    EXPECT_EQ(fired_a, 1);
    EXPECT_FALSE(stale.pending());

    // The slot is recycled by the next event; the stale handle's
    // generation no longer matches, so cancelling it must be a no-op
    // that leaves the new occupant untouched.
    eq.schedule(20, [&]() { ++fired_b; });
    EXPECT_FALSE(stale.cancel());
    EXPECT_FALSE(stale.pending());
    eq.run();
    EXPECT_EQ(fired_b, 1);
}

TEST(EventQueue, StaleHandleAfterCancelledSlotReuseIsInert)
{
    EventQueue eq;
    int fired = 0;
    auto stale = eq.schedule(10, [&]() { ++fired; });
    EXPECT_TRUE(stale.cancel());
    eq.run(); // reaps the cancelled entry, freeing the slot

    eq.schedule(20, [&]() { ++fired; });
    EXPECT_FALSE(stale.cancel());
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, SameTickFifoSurvivesSlotRecycling)
{
    // Scramble the free list with interleaved schedule/cancel/run
    // cycles, then check that a burst of same-tick events still fires
    // in scheduling order even though their pooled slots are reused
    // out of order.
    EventQueue eq;
    std::vector<EventQueue::Handle> handles;
    for (int i = 0; i < 32; ++i)
        handles.push_back(eq.schedule(5, []() {}));
    for (int i = 0; i < 32; i += 2)
        handles[i].cancel();
    eq.run();

    std::vector<int> order;
    for (int i = 0; i < 64; ++i)
        eq.schedule(100, [&order, i]() { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, SlotRecyclingKeepsSlabBounded)
{
    // 10k sequential schedule/fire cycles with at most 4 events
    // pending must not grow the slab past the concurrent working set.
    EventQueue eq;
    std::uint64_t fired = 0;
    for (int i = 0; i < 10'000; ++i) {
        for (int j = 0; j < 4; ++j)
            eq.scheduleIn(j + 1, [&]() { ++fired; });
        eq.run();
    }
    EXPECT_EQ(fired, 40'000u);
    EXPECT_LE(eq.slabSlots(), 8u);
}

TEST(EventQueue, CancelReleasesCallbackResources)
{
    // A cancelled event's callback is destroyed at cancel time, not
    // when the tombstone is reaped from the heap.
    EventQueue eq;
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> watch = token;
    auto handle = eq.schedule(10, [token]() {});
    token.reset();
    EXPECT_FALSE(watch.expired());
    EXPECT_TRUE(handle.cancel());
    EXPECT_TRUE(watch.expired());
    eq.schedule(20, []() {});
    eq.run();
}

TEST(EventQueue, DefaultHandleIsInert)
{
    EventQueue::Handle h;
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(h.cancel());
}

TEST(Ticks, UnitConversionsRoundTrip)
{
    EXPECT_EQ(sim::fromUs(1.0), 1'000'000);
    EXPECT_EQ(sim::fromMs(1.0), 1'000'000'000LL);
    EXPECT_DOUBLE_EQ(sim::toMs(sim::fromMs(12.5)), 12.5);
    EXPECT_DOUBLE_EQ(sim::toSeconds(sim::kTicksPerSec), 1.0);
}

TEST(Ticks, TransferTicksRoundsUpAndHandlesZero)
{
    EXPECT_EQ(sim::transferTicks(0.0, 1e9), 0);
    EXPECT_EQ(sim::transferTicks(1e9, 1e9), sim::kTicksPerSec);
    // One byte at huge bandwidth still takes at least one tick.
    EXPECT_GE(sim::transferTicks(1.0, 1e15), 1);
}

/** @file Unit tests for bandwidth channels and the DMA engine. */

#include <gtest/gtest.h>

#include "mem/bandwidth_channel.h"
#include "mem/dma_engine.h"
#include "mem/interleaved_memory.h"
#include "mem/memory_system.h"
#include "sim/log.h"

using namespace sn40l;
using sim::EventQueue;
using sim::Tick;

TEST(BandwidthChannel, TransferTimeMatchesBandwidth)
{
    EventQueue eq;
    mem::BandwidthChannel hbm(eq, "hbm", 1e12); // 1 TB/s

    Tick done_at = -1;
    hbm.transfer(1e9, [&]() { done_at = eq.now(); }); // 1 GB
    eq.run();
    // 1 GB at 1 TB/s = 1 ms.
    EXPECT_EQ(done_at, sim::fromMs(1.0));
    EXPECT_DOUBLE_EQ(hbm.stats().get("bytes"), 1e9);
}

TEST(BandwidthChannel, EfficiencyDeratesBandwidth)
{
    EventQueue eq;
    mem::BandwidthChannel hbm(eq, "hbm", 1e12, 0.5);
    EXPECT_DOUBLE_EQ(hbm.effectiveBandwidth(), 0.5e12);

    Tick done_at = -1;
    hbm.transfer(1e9, [&]() { done_at = eq.now(); });
    eq.run();
    EXPECT_EQ(done_at, sim::fromMs(2.0));
}

TEST(BandwidthChannel, EndIfBookedPredictsALazyBooking)
{
    EventQueue eq;
    mem::BandwidthChannel hbm(eq, "hbm", 1e12); // 1 TB/s: 1 GB = 1 ms
    eq.schedule(sim::fromMs(5.0), []() {});
    eq.run();
    // Booked at tick 1 ms, after the fact: it starts there, not at now.
    EXPECT_EQ(hbm.endIfBooked(1e9, sim::fromMs(1.0)), sim::fromMs(2.0));
    EXPECT_EQ(hbm.book(1e9, sim::fromMs(1.0)), sim::fromMs(2.0));
    EXPECT_EQ(hbm.busyUntil(), sim::fromMs(2.0));
    // The next one queues behind it; the query books nothing.
    EXPECT_EQ(hbm.endIfBooked(1e9, sim::fromMs(1.5)), sim::fromMs(3.0));
    EXPECT_EQ(hbm.busyUntil(), sim::fromMs(2.0));
    EXPECT_EQ(hbm.book(1e9, sim::fromMs(1.5)), sim::fromMs(3.0));
    EXPECT_DOUBLE_EQ(hbm.stats().get("queue_ticks"),
                     static_cast<double>(sim::fromMs(0.5)));
}

TEST(BandwidthChannel, TransfersSerialize)
{
    EventQueue eq;
    mem::BandwidthChannel ch(eq, "ch", 1e9); // 1 GB/s

    std::vector<Tick> done;
    ch.transfer(1e6, [&]() { done.push_back(eq.now()); }); // 1 ms
    ch.transfer(2e6, [&]() { done.push_back(eq.now()); }); // +2 ms
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], sim::fromMs(1.0));
    EXPECT_EQ(done[1], sim::fromMs(3.0));
    EXPECT_GT(ch.stats().get("queue_ticks"), 0.0);
}

TEST(BandwidthChannel, LatencyAddsToCompletion)
{
    EventQueue eq;
    mem::BandwidthChannel ch(eq, "ch", 1e9, 1.0, sim::fromUs(5));
    Tick done_at = -1;
    ch.transfer(1e6, [&]() { done_at = eq.now(); });
    eq.run();
    EXPECT_EQ(done_at, sim::fromMs(1.0) + sim::fromUs(5));
}

TEST(BandwidthChannel, RejectsBadConfig)
{
    EventQueue eq;
    EXPECT_THROW(mem::BandwidthChannel(eq, "x", -1.0), sim::FatalError);
    EXPECT_THROW(mem::BandwidthChannel(eq, "x", 1e9, 1.5), sim::FatalError);
    EXPECT_THROW(mem::BandwidthChannel(eq, "x", 1e9, 0.0), sim::FatalError);
}

TEST(BandwidthChannel, FireAndForgetTransferStillAccountsTime)
{
    EventQueue eq;
    mem::BandwidthChannel ch(eq, "ch", 1e9);
    ch.transfer(1e6, nullptr);
    EXPECT_EQ(ch.busyUntil(), sim::fromMs(1.0));
    Tick done_at = -1;
    ch.transfer(1e6, [&]() { done_at = eq.now(); });
    eq.run();
    EXPECT_EQ(done_at, sim::fromMs(2.0));
}

TEST(DmaEngine, CompletionGatedBySlowerSide)
{
    EventQueue eq;
    mem::InterleavedMemory ddr(eq, "ddr", 1, 100e9, 1 << 20);  // 100 GB/s
    mem::InterleavedMemory hbm(eq, "hbm", 1, 1600e9, 1 << 20); // 1.6 TB/s
    mem::DmaEngine dma(eq, "dma");

    Tick done_at = -1;
    dma.copy(ddr, 0, hbm, 0, 10e9, [&]() { done_at = eq.now(); }); // 10 GB
    eq.run();
    // Slower side: 10 GB at 100 GB/s = 100 ms.
    EXPECT_EQ(done_at, sim::fromMs(100.0));
    mem::MemorySystemConfig idle;
    idle.ddr.perChannelBandwidth = 100e9;
    idle.hbm.perChannelBandwidth = 1600e9;
    EXPECT_EQ(idle.copyTicks(10e9), sim::fromMs(100.0));
    EXPECT_DOUBLE_EQ(dma.stats().get("bytes"), 10e9);
}

TEST(DmaEngine, ConcurrentCopiesShareChannel)
{
    EventQueue eq;
    mem::InterleavedMemory ddr(eq, "ddr", 1, 100e9, 1 << 20);
    mem::InterleavedMemory hbm(eq, "hbm", 1, 1600e9, 1 << 20);
    mem::DmaEngine dma(eq, "dma");

    std::vector<Tick> done;
    dma.copy(ddr, 0, hbm, 0, 10e9, [&]() { done.push_back(eq.now()); });
    dma.copy(ddr, 0, hbm, 0, 10e9, [&]() { done.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    // The second copy waits for DDR to free up.
    EXPECT_EQ(done[1], sim::fromMs(200.0));
}

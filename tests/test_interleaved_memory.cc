/**
 * @file
 * Tests for the channel-interleaved memory model: address-to-channel
 * rotation, aggregate bandwidth on contiguous streams, per-channel
 * serialization, the closed-form split against a per-channel
 * reference, and the serving-model consistency check between the DES
 * DMA path and the analytic switch estimate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coe/serving.h"
#include "mem/bandwidth_channel.h"
#include "mem/interleaved_memory.h"
#include "mem/memory_system.h"
#include "sim/log.h"
#include "sim/rng.h"

using namespace sn40l;
using sim::EventQueue;
using sim::Tick;

TEST(InterleavedMemory, AddressMappingRotatesChannels)
{
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 8, 100e9, 256);
    EXPECT_EQ(hbm.numChannels(), 8);
    // One byte at each address lands on the channel its 256 B line
    // maps to, wrapping after eight lines.
    const std::int64_t addrs[] = {0, 255, 256, 256 * 7 + 3, 256 * 8};
    const int owners[] = {0, 0, 1, 7, 0};
    for (int i = 0; i < 5; ++i) {
        std::vector<double> before(8);
        for (int c = 0; c < 8; ++c)
            before[c] = hbm.channelBytes(c);
        hbm.bookAccess(addrs[i], 1.0, 0);
        for (int c = 0; c < 8; ++c) {
            const double want = c == owners[i] ? 1.0 : 0.0;
            EXPECT_EQ(hbm.channelBytes(c) - before[c], want)
                << "address " << addrs[i] << " channel " << c;
        }
    }
}

TEST(InterleavedMemory, ContiguousStreamReachesAggregateBandwidth)
{
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 8, 100e9, 256);

    double bytes = 8e9; // 1 GB per channel
    Tick done = hbm.bookAccess(0, bytes);
    // 8 GB at 800 GB/s aggregate = 10 ms.
    EXPECT_NEAR(sim::toMs(done), 10.0, 0.1);
    EXPECT_DOUBLE_EQ(hbm.stats().get("bytes"), bytes);
}

TEST(InterleavedMemory, AccessesOnOneChannelSerialize)
{
    // Eight one-line accesses a whole rotation apart all land on
    // channel 0 and queue behind each other; eight adjacent lines go
    // to eight channels at once.
    EventQueue eq;
    mem::InterleavedMemory camp(eq, "camp", 8, 100e9, 256);
    mem::InterleavedMemory spread(eq, "spread", 8, 100e9, 256);
    Tick camp_done = 0, spread_done = 0;
    for (std::int64_t i = 0; i < 8; ++i) {
        camp_done = std::max(camp_done, camp.bookAccess(i * 8 * 256, 256));
        spread_done = std::max(spread_done, spread.bookAccess(i * 256, 256));
    }
    EXPECT_EQ(spread_done, sim::transferTicks(256, 100e9));
    EXPECT_EQ(camp_done, 8 * spread_done);
    EXPECT_EQ(camp.busyUntil(1), 0);
}

TEST(InterleavedMemory, ZeroByteAccessCompletesImmediately)
{
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 4, 100e9, 256);
    EXPECT_EQ(hbm.bookAccess(0, 0.0), 0);
    // A fraction of a byte truncates to nothing and books nothing.
    EXPECT_EQ(hbm.bookAccess(0, 0.5, 7), 7);
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(hbm.busyUntil(c), 0);
}

TEST(InterleavedMemory, ValidatesConfig)
{
    EventQueue eq;
    EXPECT_THROW(mem::InterleavedMemory(eq, "x", 0, 1e9, 256),
                 sim::FatalError);
    EXPECT_THROW(mem::InterleavedMemory(eq, "x", 4, 1e9, 0),
                 sim::FatalError);
    EXPECT_THROW(mem::InterleavedMemory(eq, "x", 4, 0.0, 256),
                 sim::FatalError);
    EXPECT_THROW(mem::InterleavedMemory(eq, "x", 4, 1e9, 256, 0.0),
                 sim::FatalError);
    EXPECT_THROW(mem::InterleavedMemory(eq, "x", 4, 1e9, 256, 1.5),
                 sim::FatalError);
    mem::InterleavedMemory ok(eq, "ok", 4, 1e9, 256);
    EXPECT_THROW(ok.bookAccess(-1, 1.0), sim::SimPanic);
    EXPECT_THROW(ok.bookAccess(0, -1.0), sim::SimPanic);
    EXPECT_THROW(ok.endIfBooked(-1, 1.0, 0), sim::SimPanic);
}

namespace {

/**
 * Reference split: the original per-channel loop (three divides per
 * channel plus two channel lookups). bookAccess must reproduce its
 * per-channel bytes exactly, including the order of the two trims.
 */
std::vector<double>
referenceSplit(std::int64_t chans, std::int64_t line, std::int64_t addr,
               double bytes)
{
    std::vector<double> share(static_cast<std::size_t>(chans), 0.0);
    std::int64_t total = static_cast<std::int64_t>(bytes);
    if (total <= 0)
        return share;
    auto channel_of = [&](std::int64_t a) {
        return static_cast<std::size_t>((a / line) % chans);
    };
    const std::int64_t last_addr = addr + total - 1;
    const std::int64_t first_line = addr / line;
    const std::int64_t last_line = last_addr / line;
    for (std::int64_t c = 0; c < chans; ++c) {
        std::int64_t first_k = first_line +
            (((c - first_line % chans) % chans) + chans) % chans;
        if (first_k > last_line)
            continue;
        std::int64_t lines = (last_line - first_k) / chans + 1;
        share[static_cast<std::size_t>(c)] =
            static_cast<double>(lines * line);
    }
    share[channel_of(addr)] -= static_cast<double>(addr % line);
    share[channel_of(last_addr)] -=
        static_cast<double>(line - 1 - last_addr % line);
    return share;
}

/**
 * A reference tier: one standalone BandwidthChannel per channel, each
 * booked with its referenceSplit share. It shares no code with
 * InterleavedMemory's booking.
 */
class ReferenceTier
{
  public:
    ReferenceTier(EventQueue &eq, int channels, double peak_bw,
                  std::int64_t line, double efficiency, Tick latency)
        : line_(line)
    {
        for (int c = 0; c < channels; ++c)
            channels_.push_back(std::make_unique<mem::BandwidthChannel>(
                eq, "ref.ch" + std::to_string(c), peak_bw, efficiency,
                latency));
    }

    ReferenceTier(EventQueue &eq, const mem::TierConfig &cfg)
        : ReferenceTier(eq, cfg.channels, cfg.perChannelBandwidth,
                        cfg.interleaveBytes, cfg.efficiency, 0)
    {
    }

    /** Book every nonzero share at @p at; @return the latest end. */
    Tick book(std::int64_t addr, double bytes, Tick at)
    {
        std::vector<double> share = referenceSplit(
            static_cast<std::int64_t>(channels_.size()), line_, addr, bytes);
        Tick done = at;
        for (std::size_t c = 0; c < share.size(); ++c)
            if (share[c] > 0.0)
                done = std::max(done, channels_[c]->book(share[c], at));
        return done;
    }

    Tick latestBusy() const
    {
        Tick t = 0;
        for (const auto &ch : channels_)
            t = std::max(t, ch->busyUntil());
        return t;
    }

    /** Every channel's busy tick and booked bytes equal @p tier's. */
    ::testing::AssertionResult matches(const mem::InterleavedMemory &tier) const
    {
        if (tier.numChannels() != static_cast<int>(channels_.size()))
            return ::testing::AssertionFailure() << "channel count";
        for (int c = 0; c < tier.numChannels(); ++c) {
            const mem::BandwidthChannel &ch = *channels_[c];
            if (tier.busyUntil(c) != ch.busyUntil())
                return ::testing::AssertionFailure()
                    << "channel " << c << " busy until " << tier.busyUntil(c)
                    << ", reference " << ch.busyUntil();
            if (tier.channelBytes(c) != ch.stats().get("bytes"))
                return ::testing::AssertionFailure()
                    << "channel " << c << " booked " << tier.channelBytes(c)
                    << " B, reference " << ch.stats().get("bytes");
        }
        return ::testing::AssertionSuccess();
    }

  private:
    std::int64_t line_;
    std::vector<std::unique_ptr<mem::BandwidthChannel>> channels_;
};

} // namespace

TEST(InterleavedMemory, ClosedFormSplitMatchesPerChannelReference)
{
    // Random tiers (channel count, interleave, peak, efficiency,
    // latency) take random accesses issued at random ticks: behind a
    // channel's busy window, as lazy booking issues them, or after the
    // tier has gone idle. After every op the prediction equals the
    // booking that follows it, the booking equals the reference's, and
    // so does every channel's busy tick and byte count.
    sim::Rng rng(20241016);
    auto draw = [&rng](std::int64_t bound) {
        return static_cast<std::int64_t>(
            rng.uniformInt(static_cast<std::uint64_t>(bound)));
    };
    const std::int64_t lines[] = {1, 3, 64, 256, 4096, 1 << 20};
    for (int trial = 0; trial < 3000; ++trial) {
        const std::int64_t chans = 1 + draw(16);
        const std::int64_t line = lines[draw(6)];
        const double peak = 1e9 * static_cast<double>(1 + draw(200));
        const double eff =
            draw(4) == 0 ? 1.0 : 1.0 - 0.95 * rng.uniformDouble();
        const Tick latency = draw(3) == 0 ? 0 : draw(sim::fromUs(2));
        EventQueue eq;
        mem::InterleavedMemory tier(eq, "tier", static_cast<int>(chans),
                                    peak, line, eff, latency);
        ReferenceTier ref(eq, static_cast<int>(chans), peak, line, eff,
                          latency);
        for (int op = 0; op < 30; ++op) {
            std::int64_t addr = draw(64 * chans * line + 7);
            double bytes = 0.0;
            switch (draw(7)) {
              case 0: // empty
                break;
              case 1: // sub-line, possibly straddling one boundary
                bytes = static_cast<double>(1 + draw(line));
                break;
              case 2: // exact line boundaries at both ends
                addr -= addr % line;
                bytes = static_cast<double>(line * (1 + draw(2 * chans)));
                break;
              case 3: // ends on the last byte of a line
                bytes = static_cast<double>(line - addr % line +
                                            line * draw(3 * chans));
                break;
              case 4: // several full rounds over every channel
                bytes = static_cast<double>(line * chans * (1 + draw(5)) +
                                            draw(chans * line));
                break;
              case 5: // a multi-GB stream from address 0, as decode
                      // weight streaming books it
                addr = 0;
                bytes = 1e8 * static_cast<double>(1 + draw(200)) +
                    rng.uniformDouble();
                break;
              default: // fractional byte counts truncate
                bytes = rng.uniformDouble() * 3.0 *
                    static_cast<double>(chans * line);
                break;
            }
            const Tick at = draw(ref.latestBusy() + sim::fromUs(10));
            // Built only when an assertion fails.
            auto where = [&] {
                return "trial " + std::to_string(trial) + " op " +
                    std::to_string(op) + " chans " + std::to_string(chans) +
                    " line " + std::to_string(line) + " addr " +
                    std::to_string(addr) + " bytes " + std::to_string(bytes) +
                    " at " + std::to_string(at);
            };
            const Tick predicted = tier.endIfBooked(addr, bytes, at);
            const Tick booked = tier.bookAccess(addr, bytes, at);
            ASSERT_EQ(predicted, booked) << where();
            ASSERT_EQ(booked, ref.book(addr, bytes, at)) << where();
            ASSERT_TRUE(ref.matches(tier)) << where();
        }
    }
}

TEST(MemorySystem, Sn40lTrafficAndLoadsMatchPerChannelReference)
{
    // The SN40L node's tiers (eight DDR and eight HBM channels) take
    // lazily booked execution traffic interleaved with demand and
    // prefetch expert loads. Each trafficEnd(b, t) equals the
    // traffic(b, t) booked right after it, and every tick matches
    // reference tiers of standalone per-channel BandwidthChannels.
    coe::ServingConfig cfg;
    cfg.platform = coe::Platform::Sn40l;
    const mem::MemorySystemConfig mcfg = coe::platformMemoryConfig(cfg);
    ASSERT_EQ(mcfg.hbm.channels, 8);
    ASSERT_EQ(mcfg.dmaSetupSeconds, 0.0);

    EventQueue eq;
    mem::MemorySystem memsys(eq, "memsys", mcfg);
    ReferenceTier ddr(eq, mcfg.ddr);
    ReferenceTier hbm(eq, mcfg.hbm);
    sim::Rng rng(31);
    auto draw = [&rng](std::int64_t bound) {
        return static_cast<std::int64_t>(
            rng.uniformInt(static_cast<std::uint64_t>(bound)));
    };
    const double expert = cfg.expertBase.weightBytes();
    const std::int64_t region = static_cast<std::int64_t>(64 * expert);

    int steps = 0, traffics = 0, loads = 0, landed = 0;
    std::function<void()> step = [&]() {
        const Tick now = eq.now();
        const bool engine_free = memsys.queuedLoads() == 0 &&
            memsys.loadsInFlight() < mcfg.dmaEngines;
        if (draw(3) == 0 && engine_free) {
            // Issued at once on a free engine, so both tiers book now.
            const std::int64_t src = draw(region);
            const std::int64_t dst = draw(region);
            const double bytes = draw(4) == 0
                ? static_cast<double>(1 + draw(1 << 24))
                : expert * (0.25 + rng.uniformDouble());
            const Tick expect =
                std::max(ddr.book(src, bytes, now), hbm.book(dst, bytes, now));
            const auto priority = draw(2) == 0
                ? mem::TransferPriority::Demand
                : mem::TransferPriority::Prefetch;
            memsys.load(src, dst, bytes, priority, [&, expect]() {
                EXPECT_EQ(eq.now(), expect) << "load landed off reference";
                ++landed;
            });
            EXPECT_EQ(memsys.queuedLoads(), 0);
            ++loads;
        } else {
            // Decode weight streaming, booked lazily for a prompt that
            // started up to 50 ms ago.
            const Tick at = now - draw(std::min<Tick>(now, sim::fromMs(50)) + 1);
            const double bytes = draw(3) == 0
                ? rng.uniformDouble() * 1e6
                : expert * rng.uniformDouble() * 4.0;
            const Tick predicted = memsys.trafficEnd(bytes, at);
            const Tick booked = memsys.traffic(bytes, at);
            EXPECT_EQ(predicted, booked) << "step " << steps;
            EXPECT_EQ(booked, hbm.book(0, bytes, at)) << "step " << steps;
            ++traffics;
        }
        EXPECT_TRUE(hbm.matches(memsys.hbm())) << "step " << steps;
        EXPECT_TRUE(ddr.matches(memsys.ddr())) << "step " << steps;
        if (++steps < 2000)
            eq.scheduleIn(draw(sim::fromMs(20)), [&step]() { step(); });
    };
    eq.schedule(0, [&step]() { step(); });
    eq.run();

    EXPECT_EQ(landed, loads);
    EXPECT_GT(loads, 100);
    EXPECT_GT(traffics, 100);
}

TEST(ServingConsistency, DesDmaAgreesWithAnalyticSwitchModel)
{
    // analyticBatches charges switches with the idle copy price;
    // verify that pushing the same expert copy through the platform's
    // DES memory system (Fig 9's memcpy step) lands within 2%.
    coe::ServingConfig cfg;
    cfg.platform = coe::Platform::Sn40l;
    double analytic = coe::computePhaseCosts(cfg).switchSeconds;

    sim::EventQueue eq;
    mem::MemorySystem memsys(eq, "memsys", coe::platformMemoryConfig(cfg));
    double bytes = cfg.expertBase.weightBytes();

    Tick done = -1;
    memsys.load(0, 0, bytes, mem::TransferPriority::Demand,
                [&]() { done = eq.now(); });
    eq.run();

    EXPECT_NEAR(sim::toSeconds(done), analytic, analytic * 0.02);
}

/**
 * @file
 * Tests for the channel-interleaved memory model: aggregate bandwidth
 * on contiguous streams, channel camping on pathological strides, and
 * the serving-model consistency check between the DES DMA path and
 * the analytic switch estimate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "coe/serving.h"
#include "mem/interleaved_memory.h"
#include "runtime/machine.h"
#include "sim/log.h"
#include "sim/rng.h"

using namespace sn40l;
using sim::EventQueue;
using sim::Tick;

TEST(InterleavedMemory, AddressMappingRotatesChannels)
{
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 8, 100e9, 256);
    EXPECT_EQ(hbm.channelOf(0), 0);
    EXPECT_EQ(hbm.channelOf(255), 0);
    EXPECT_EQ(hbm.channelOf(256), 1);
    EXPECT_EQ(hbm.channelOf(256 * 8), 0); // wraps
    EXPECT_EQ(hbm.numChannels(), 8);
    EXPECT_DOUBLE_EQ(hbm.aggregateBandwidth(), 800e9);
}

TEST(InterleavedMemory, ContiguousStreamReachesAggregateBandwidth)
{
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 8, 100e9, 256);

    Tick done = -1;
    double bytes = 8e9; // 1 GB per channel
    hbm.access(0, bytes, [&]() { done = eq.now(); });
    eq.run();
    // 8 GB at 800 GB/s aggregate = 10 ms.
    EXPECT_NEAR(sim::toMs(done), 10.0, 0.1);
}

TEST(InterleavedMemory, ChannelCampingStrideCollapsesToOneChannel)
{
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 8, 100e9, 256);

    // Stride of channels * interleave: every element lands in ch 0.
    Tick done = -1;
    std::int64_t count = 1 << 20;
    std::int64_t elem = 256;
    hbm.accessStrided(0, 8 * 256, count, elem, [&]() { done = eq.now(); });
    eq.run();

    double bytes = static_cast<double>(count * elem); // 256 MB
    Tick one_channel = sim::transferTicks(bytes, 100e9);
    EXPECT_NEAR(static_cast<double>(done),
                static_cast<double>(one_channel), 1e6);

    // The same volume with unit stride uses all channels: ~8x faster.
    EventQueue eq2;
    mem::InterleavedMemory hbm2(eq2, "hbm", 8, 100e9, 256);
    Tick done2 = -1;
    hbm2.accessStrided(0, 256, count, elem, [&]() { done2 = eq2.now(); });
    eq2.run();
    EXPECT_NEAR(static_cast<double>(done) / static_cast<double>(done2),
                8.0, 0.1);
}

TEST(InterleavedMemory, StridedCountZeroIsALegalNoOp)
{
    // Regression: count == 0 used to be rejected as an internal panic
    // alongside genuinely invalid inputs. A zero-element access — even
    // with a channel-camping stride of channels x interleave — must
    // simply complete without moving a byte.
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 8, 100e9, 256);
    bool done = false;
    hbm.accessStrided(0, 8 * 256, 0, 256, [&]() { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(eq.now(), 0);
    EXPECT_DOUBLE_EQ(hbm.stats().get("bytes"), 0.0);
}

TEST(InterleavedMemory, NegativeStrideWalksChannelsDownward)
{
    // A negative stride is a legal descending walk while every
    // element stays at a non-negative address.
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 8, 100e9, 256);
    Tick done = -1;
    hbm.accessStrided(7 * 256, -256, 8, 256, [&]() { done = eq.now(); });
    eq.run();
    // One element per channel, all concurrent.
    EXPECT_EQ(done, sim::transferTicks(256, 100e9));
}

TEST(InterleavedMemory, StridedGuardsRejectBadInputsWithFatalError)
{
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 8, 100e9, 256);
    // Negative element count.
    EXPECT_THROW(hbm.accessStrided(0, 256, -1, 256, nullptr),
                 sim::FatalError);
    // Non-positive element size.
    EXPECT_THROW(hbm.accessStrided(0, 256, 4, 0, nullptr),
                 sim::FatalError);
    // Negative stride descending below address zero.
    EXPECT_THROW(hbm.accessStrided(256, -256, 3, 256, nullptr),
                 sim::FatalError);
}

TEST(InterleavedMemory, ZeroByteAccessCompletesImmediately)
{
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 4, 100e9, 256);
    bool done = false;
    hbm.access(0, 0.0, [&]() { done = true; });
    eq.run();
    EXPECT_TRUE(done);
}

TEST(InterleavedMemory, ValidatesConfig)
{
    EventQueue eq;
    EXPECT_THROW(mem::InterleavedMemory(eq, "x", 0, 1e9, 256),
                 sim::FatalError);
    EXPECT_THROW(mem::InterleavedMemory(eq, "x", 4, 1e9, 0),
                 sim::FatalError);
    mem::InterleavedMemory ok(eq, "ok", 4, 1e9, 256);
    EXPECT_THROW(ok.channelOf(-1), sim::SimPanic);
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

} // namespace

TEST(InterleavedMemory, EndIfBookedMatchesBookAccessAroundStridedAccesses)
{
    // 3 channels at a 4 KiB interleave: a contiguous range's channel
    // shares differ. The prediction matches the booking, also after a
    // strided access has reused the per-channel split buffer.
    auto tier = [](EventQueue &eq) {
        return mem::InterleavedMemory(eq, "t", 3, 1e9, 4096);
    };
    const double bytes = 10 * 4096 + 100;
    EventQueue eq;
    mem::InterleavedMemory m = tier(eq);
    Tick predicted = m.endIfBooked(0, bytes, 0);
    EXPECT_EQ(m.bookAccess(0, bytes, 0), predicted);
    m.accessStrided(0, 3 * 4096, 4, 512, nullptr);
    predicted = m.endIfBooked(0, bytes, 0);
    EXPECT_EQ(m.bookAccess(0, bytes, 0), predicted);

    EventQueue eq_range, eq_strided;
    mem::InterleavedMemory range = tier(eq_range);
    mem::InterleavedMemory strided = tier(eq_strided);
    range.bookAccess(0, bytes);
    strided.accessStrided(0, 3 * 4096, 4, 512, nullptr);
    for (int c = 0; c < 3; ++c)
        EXPECT_DOUBLE_EQ(m.channel(c).stats().get("bytes"),
                         2 * range.channel(c).stats().get("bytes") +
                             strided.channel(c).stats().get("bytes"))
            << "channel " << c;
    eq.run();
}

TEST(InterleavedMemory, ClosedFormSplitMatchesPerChannelReference)
{
    sim::Rng rng(20241016);
    auto draw = [&rng](std::int64_t bound) {
        return static_cast<std::int64_t>(
            rng.uniformInt(static_cast<std::uint64_t>(bound)));
    };
    const std::int64_t lines[] = {1, 3, 64, 256, 4096, 1 << 20};
    for (int trial = 0; trial < 400; ++trial) {
        std::int64_t chans = 1 + draw(16);
        std::int64_t line = lines[draw(6)];
        EventQueue eq;
        mem::InterleavedMemory fast(eq, "fast", static_cast<int>(chans),
                                    100e9, line);
        mem::InterleavedMemory ref(eq, "ref", static_cast<int>(chans),
                                   100e9, line);
        for (int op = 0; op < 12; ++op) {
            std::int64_t addr = draw(64 * chans * line + 7);
            double bytes = 0.0;
            switch (draw(6)) {
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
              default: // fractional byte counts truncate
                bytes = rng.uniformDouble() * 3.0 *
                    static_cast<double>(chans * line);
                break;
            }
            std::vector<double> share =
                referenceSplit(chans, line, addr, bytes);
            Tick expect = eq.now();
            for (std::size_t c = 0; c < share.size(); ++c)
                if (share[c] > 0.0)
                    expect = std::max(
                        expect, ref.channel(static_cast<int>(c))
                                    .book(share[c]));
            ASSERT_EQ(fast.bookAccess(addr, bytes), expect)
                << "chans " << chans << " line " << line << " addr "
                << addr << " bytes " << bytes;
            for (int c = 0; c < static_cast<int>(chans); ++c) {
                ASSERT_EQ(fast.channel(c).stats().get("bytes"),
                          ref.channel(c).stats().get("bytes"))
                    << "channel " << c << " chans " << chans << " line "
                    << line << " addr " << addr << " bytes " << bytes;
                ASSERT_EQ(fast.channel(c).busyUntil(),
                          ref.channel(c).busyUntil());
            }
        }
    }
}

TEST(ServingConsistency, DesDmaAgreesWithAnalyticSwitchModel)
{
    // analyticBatches charges switches with an analytic estimate;
    // verify that pushing the same expert copy through the node's DES
    // DMA path (Fig 9's memcpy step) lands within 2%.
    coe::ServingConfig cfg;
    cfg.platform = coe::Platform::Sn40l;
    double analytic = coe::computePhaseCosts(cfg).switchSeconds;

    arch::NodeConfig node_cfg = arch::NodeConfig::sn40lNode(8);
    sim::EventQueue eq;
    runtime::RduNode node(eq, node_cfg);
    double bytes = cfg.expertBase.weightBytes();

    Tick done = -1;
    node.copyDdrToHbm(bytes, [&]() { done = eq.now(); });
    eq.run();

    EXPECT_NEAR(sim::toSeconds(done), analytic, analytic * 0.02);
}

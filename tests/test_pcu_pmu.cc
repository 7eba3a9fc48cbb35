/**
 * @file
 * Tests for the PCU compute model and the PMU banked scratchpad,
 * including the diagonal-striping property that makes transpose reads
 * conflict-free (Section IV-B).
 */

#include <gtest/gtest.h>

#include <vector>

#include "arch/chip_config.h"
#include "arch/pcu.h"
#include "arch/pmu.h"
#include "coe/serving.h"
#include "sim/log.h"

using namespace sn40l;
using arch::ChipConfig;
using arch::Pcu;
using arch::Pmu;

TEST(ChipConfig, TableTwoParameters)
{
    ChipConfig cfg = ChipConfig::sn40l();
    EXPECT_DOUBLE_EQ(cfg.peakBf16Flops, 638e12);
    EXPECT_EQ(cfg.pcuCount, 1040);
    EXPECT_EQ(cfg.pmuCount, 1040);
    EXPECT_EQ(cfg.sramBytes, 520LL * 1024 * 1024);
    EXPECT_EQ(cfg.hbmBytes, 64LL * 1024 * 1024 * 1024);
    EXPECT_DOUBLE_EQ(cfg.hbmBandwidth, 1.8e12);
    EXPECT_DOUBLE_EQ(cfg.ddrBandwidth, 200e9);
    EXPECT_EQ(cfg.diesPerSocket, 2);
    EXPECT_LT(cfg.clockGhz, 2.0); // paper: "< 2 GHz"
}

TEST(ChipConfig, DerivedQuantities)
{
    ChipConfig cfg = ChipConfig::sn40l();
    EXPECT_NEAR(cfg.flopsPerPcu(), 638e12 / 1040, 1.0);
    EXPECT_EQ(cfg.sramPerPmu(), 512 * 1024);
    EXPECT_EQ(cfg.pmuBankBytes(), 32 * 1024);
    EXPECT_EQ(cfg.tileCount(), 4);
    EXPECT_EQ(cfg.pcusPerTile(), 260);
}

TEST(ChipConfig, NodeAggregates)
{
    arch::NodeConfig node = arch::NodeConfig::sn40lNode(8);
    EXPECT_EQ(node.totalHbmBytes(), 8 * 64LL * 1024 * 1024 * 1024);
    EXPECT_EQ(node.totalDdrBytes(),
              8 * static_cast<std::int64_t>(1.5 * 1024) * 1024 * 1024 *
                  1024);
    // Paper: models load DDR->HBM at over 1 TB/s in a single node.
    EXPECT_GT(coe::platformMemoryConfig(coe::ServingConfig{}).copyBandwidth(),
              1e12);
}

TEST(ChipConfig, ValidationCatchesNonsense)
{
    ChipConfig cfg = ChipConfig::sn40l();
    cfg.hbmEfficiency = 1.5;
    EXPECT_THROW(cfg.validate(), sim::FatalError);
    cfg = ChipConfig::sn40l();
    cfg.pmuBanks = 12; // not a power of two
    EXPECT_THROW(cfg.validate(), sim::FatalError);
}

TEST(Pcu, ThroughputByClass)
{
    ChipConfig cfg = ChipConfig::sn40l();
    double systolic = Pcu::throughput(cfg, graph::OpClass::Systolic);
    double simd = Pcu::throughput(cfg, graph::OpClass::Simd);
    EXPECT_GT(systolic, simd);
    EXPECT_DOUBLE_EQ(Pcu::throughput(cfg, graph::OpClass::Memory), 0.0);
    // 1040 PCUs at systolic efficiency reach ~85% of chip peak.
    EXPECT_NEAR(systolic * cfg.pcuCount, cfg.peakBf16Flops *
                cfg.systolicEfficiency, 1e6);
}

TEST(Pcu, SystolicTileCyclesScaleWithWork)
{
    ChipConfig cfg = ChipConfig::sn40l();
    Pcu pcu(cfg);
    std::int64_t small = pcu.systolicTileCycles(32, 6, 64);
    std::int64_t big = pcu.systolicTileCycles(64, 12, 64);
    EXPECT_GT(big, 2 * small - cfg.simdStages * 4);
    EXPECT_THROW(pcu.systolicTileCycles(0, 1, 1), sim::SimPanic);
}

TEST(Pcu, SimdFullyPipelined)
{
    ChipConfig cfg = ChipConfig::sn40l();
    Pcu pcu(cfg);
    // One vector per cycle plus drain.
    EXPECT_EQ(pcu.simdCycles(cfg.vectorLanes * 100),
              100 + cfg.simdStages);
    EXPECT_GT(pcu.reduceCycles(1024), pcu.simdCycles(1024));
}

TEST(Pmu, DefaultBankInterleavingIsConflictFreeForUnitStride)
{
    ChipConfig cfg = ChipConfig::sn40l();
    Pmu pmu(cfg, "pmu0");
    // 16 consecutive 8-byte words -> 16 distinct banks.
    std::vector<std::int64_t> addrs;
    for (int i = 0; i < 16; ++i)
        addrs.push_back(i * 8);
    auto res = pmu.access(addrs);
    EXPECT_EQ(res.cycles, 1);
    EXPECT_EQ(res.conflicts, 0);
    EXPECT_EQ(res.accepted, 16);
}

TEST(Pmu, LargeStrideConflictsAllLanes)
{
    ChipConfig cfg = ChipConfig::sn40l();
    Pmu pmu(cfg, "pmu0");
    // Stride of banks*8 bytes: every lane lands in bank 0.
    std::vector<std::int64_t> addrs;
    for (int i = 0; i < 16; ++i)
        addrs.push_back(static_cast<std::int64_t>(i) * cfg.pmuBanks * 8);
    auto res = pmu.access(addrs);
    EXPECT_EQ(res.cycles, 16);
    EXPECT_EQ(res.conflicts, 15);
}

TEST(Pmu, ProgrammableBankBitsFixStridedConflicts)
{
    ChipConfig cfg = ChipConfig::sn40l();
    Pmu pmu(cfg, "pmu0");
    std::vector<std::int64_t> addrs;
    for (int i = 0; i < 16; ++i)
        addrs.push_back(static_cast<std::int64_t>(i) * cfg.pmuBanks * 8);
    // Move the bank bits up to the stride bits (Section VII: bank
    // conflicts eliminated via programmable bank bits).
    pmu.setBankBits({7, 8, 9, 10});
    auto res = pmu.access(addrs);
    EXPECT_EQ(res.cycles, 1);
    EXPECT_EQ(res.conflicts, 0);
}

TEST(Pmu, AddressPredicationDropsForeignAddresses)
{
    ChipConfig cfg = ChipConfig::sn40l();
    Pmu pmu(cfg, "pmu0");
    pmu.setValidRange(0, 128);
    std::vector<std::int64_t> addrs = {0, 8, 128, 256};
    auto res = pmu.access(addrs);
    EXPECT_EQ(res.accepted, 2);
    EXPECT_TRUE(pmu.accepts(0));
    EXPECT_FALSE(pmu.accepts(128));
}

TEST(Pmu, TwoPmusPartitionOneLogicalTensor)
{
    // An interleaved logical tensor: each PMU accepts its own range;
    // together they accept every lane exactly once.
    ChipConfig cfg = ChipConfig::sn40l();
    Pmu lo(cfg, "lo"), hi(cfg, "hi");
    lo.setValidRange(0, 1024);
    hi.setValidRange(1024, 2048);
    std::vector<std::int64_t> addrs;
    for (int i = 0; i < 32; ++i)
        addrs.push_back(i * 64);
    auto rlo = lo.access(addrs);
    auto rhi = hi.access(addrs);
    EXPECT_EQ(rlo.accepted + rhi.accepted, 32);
}

namespace {

/** Gather bank indices for one row / one column under a layout. */
std::pair<int, int>
rowColConflictCycles(Pmu &pmu, bool striped, int lanes, std::int64_t cols)
{
    std::vector<std::int64_t> row_addrs, col_addrs;
    for (int i = 0; i < lanes; ++i) {
        if (striped) {
            row_addrs.push_back(pmu.diagonalStripeAddr(5, i, cols, 8));
            col_addrs.push_back(pmu.diagonalStripeAddr(i, 5, cols, 8));
        } else {
            row_addrs.push_back(Pmu::linearAddr(5, i, cols, 8));
            col_addrs.push_back(Pmu::linearAddr(i, 5, cols, 8));
        }
    }
    int row_cycles = pmu.access(row_addrs).cycles;
    int col_cycles = pmu.access(col_addrs).cycles;
    return {row_cycles, col_cycles};
}

} // namespace

TEST(Pmu, DiagonalStripingMakesTransposeConflictFree)
{
    ChipConfig cfg = ChipConfig::sn40l();
    Pmu pmu(cfg, "pmu0");
    const int lanes = cfg.pmuBanks;
    const std::int64_t cols = 64; // multiple of bank count

    auto linear = rowColConflictCycles(pmu, false, lanes, cols);
    auto striped = rowColConflictCycles(pmu, true, lanes, cols);

    // Linear layout: row access is conflict-free, column access
    // serializes on one bank.
    EXPECT_EQ(linear.first, 1);
    EXPECT_EQ(linear.second, lanes);

    // Diagonal striping: both directions conflict-free — the paper's
    // "read the same tensor in regular and transposed format at full
    // bandwidth".
    EXPECT_EQ(striped.first, 1);
    EXPECT_EQ(striped.second, 1);
}

TEST(Pmu, BankBitConfigurationValidated)
{
    ChipConfig cfg = ChipConfig::sn40l();
    Pmu pmu(cfg, "pmu0");
    EXPECT_THROW(pmu.setBankBits({1, 2}), sim::FatalError);      // too few
    EXPECT_THROW(pmu.setBankBits({1, 2, 3, 63}), sim::FatalError);
    EXPECT_THROW(pmu.setValidRange(10, 10), sim::FatalError);
}

/**
 * @file
 * Parameterized property sweeps (gtest TEST_P): invariants that must
 * hold across whole families of configurations — every benchmark in
 * the suite, every bank count, every TP degree, every platform/batch
 * combination, every allocator alignment.
 */

#include <gtest/gtest.h>

#include <set>

#include "arch/pmu.h"
#include "coe/serving.h"
#include "compiler/compiler.h"
#include "mem/free_list_allocator.h"
#include "models/model_zoo.h"
#include "runtime/runner.h"
#include "sim/rng.h"

using namespace sn40l;

// ---------------------------------------------------------------------
// Sweep 1: every Fig-10 benchmark satisfies the core fusion claims.
// ---------------------------------------------------------------------

class BenchmarkSweep : public ::testing::TestWithParam<int>
{
  protected:
    models::Benchmark bench() const
    {
        return models::paperBenchmarks()[GetParam()];
    }
};

TEST_P(BenchmarkSweep, GraphValidatesAndHasWork)
{
    graph::DataflowGraph g = bench().build();
    EXPECT_NO_THROW(g.validate());
    EXPECT_GT(g.totalFlops(), 0.0);
    EXPECT_GT(g.weightBytes(), 0.0);
}

TEST_P(BenchmarkSweep, FusedNeverSlowerAndLaunchesFewer)
{
    arch::NodeConfig node = arch::NodeConfig::sn40lNode(8);
    graph::DataflowGraph g = bench().build();
    auto unfused = runtime::runWorkload(g, node, bench().sockets,
                                        runtime::RunConfig::Unfused);
    auto fused = runtime::runWorkload(g, node, bench().sockets,
                                      runtime::RunConfig::FusedHO);
    EXPECT_LT(fused.seconds(), unfused.seconds());
    EXPECT_LT(fused.program.totalLaunches,
              unfused.program.totalLaunches);
}

TEST_P(BenchmarkSweep, MemoryPlanFitsTheSocket)
{
    arch::ChipConfig chip = arch::ChipConfig::sn40l();
    graph::DataflowGraph g = bench().build();
    compiler::CompileOptions options;
    options.fusion.tensorParallel = bench().sockets;
    compiler::Program prog = compiler::compile(g, chip, options);
    EXPECT_LE(prog.hbmResidentBytes,
              static_cast<double>(chip.hbmBytes));
    EXPECT_LE(prog.ddrResidentBytes,
              static_cast<double>(chip.ddrBytes));
}

TEST_P(BenchmarkSweep, KernelTrafficConservesGraphTraffic)
{
    // The sum of per-kernel boundary traffic in unfused mode equals
    // the per-op traffic of the graph (nothing lost or invented).
    arch::ChipConfig chip = arch::ChipConfig::sn40l();
    graph::DataflowGraph g = bench().build();
    compiler::FusionOptions opt;
    opt.mode = compiler::ExecMode::RduUnfused;
    opt.tensorParallel = bench().sockets;
    auto kernels = compiler::partitionGraph(g, chip, opt);

    double kernel_bytes = 0.0;
    for (const auto &k : kernels)
        kernel_bytes += k.offChipBytes();
    double op_bytes = 0.0;
    for (const auto &op : g.ops())
        op_bytes += g.opReadBytes(op.id) + g.opWriteBytes(op.id);
    EXPECT_NEAR(kernel_bytes, op_bytes, op_bytes * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PaperSuite, BenchmarkSweep, ::testing::Range(0, 17),
    [](const ::testing::TestParamInfo<int> &info) {
        std::string name = models::paperBenchmarks()[info.param].name;
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Sweep 2: diagonal striping is conflict-free for every bank count.
// ---------------------------------------------------------------------

class BankSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(BankSweep, DiagonalStripeConflictFreeBothDirections)
{
    arch::ChipConfig cfg = arch::ChipConfig::sn40l();
    cfg.pmuBanks = GetParam();
    arch::Pmu pmu(cfg, "pmu");
    const int lanes = GetParam();
    const std::int64_t cols = 4L * GetParam();

    for (int fixed = 0; fixed < 4; ++fixed) {
        std::vector<std::int64_t> row, col;
        for (int i = 0; i < lanes; ++i) {
            row.push_back(pmu.diagonalStripeAddr(fixed, i, cols, 8));
            col.push_back(pmu.diagonalStripeAddr(i, fixed, cols, 8));
        }
        EXPECT_EQ(pmu.access(row).cycles, 1) << "row, fixed=" << fixed;
        EXPECT_EQ(pmu.access(col).cycles, 1) << "col, fixed=" << fixed;
    }
}

TEST_P(BankSweep, LinearLayoutColumnReadSerializesByBankCount)
{
    arch::ChipConfig cfg = arch::ChipConfig::sn40l();
    cfg.pmuBanks = GetParam();
    arch::Pmu pmu(cfg, "pmu");
    const int lanes = GetParam();
    const std::int64_t cols = 4L * GetParam();

    std::vector<std::int64_t> col;
    for (int i = 0; i < lanes; ++i)
        col.push_back(arch::Pmu::linearAddr(i, 1, cols, 8));
    EXPECT_EQ(pmu.access(col).cycles, GetParam());
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, BankSweep,
                         ::testing::Values(4, 8, 16, 32, 64));

// ---------------------------------------------------------------------
// Sweep 3: decode latency is monotone non-increasing in TP degree.
// ---------------------------------------------------------------------

class TpSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(TpSweep, DecodeScalesWithSockets)
{
    int tp = GetParam();
    models::WorkloadSpec spec;
    spec.model = models::LlmConfig::llama2_7b();
    spec.phase = models::Phase::Decode;
    spec.seqLen = 1024;
    spec.tensorParallel = tp;
    graph::DataflowGraph g = models::buildTransformer(spec);

    arch::NodeConfig node = arch::NodeConfig::sn40lNode(std::max(tp, 1));
    double t = runtime::decodeSecondsPerToken(g, node, tp);

    // Against half the sockets (where applicable), more sockets are
    // never slower and at most linearly faster.
    if (tp >= 2) {
        models::WorkloadSpec half = spec;
        half.tensorParallel = tp / 2;
        graph::DataflowGraph gh = models::buildTransformer(half);
        arch::NodeConfig nh = arch::NodeConfig::sn40lNode(tp / 2);
        double th = runtime::decodeSecondsPerToken(gh, nh, tp / 2);
        EXPECT_LT(t, th);
        EXPECT_GT(t, th / 2.2);
    } else {
        EXPECT_GT(t, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Degrees, TpSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

// ---------------------------------------------------------------------
// Sweep 4: serving invariants across platform x batch.
// ---------------------------------------------------------------------

using PlatformBatch = std::tuple<coe::Platform, int>;

class ServingSweep : public ::testing::TestWithParam<PlatformBatch>
{
};

TEST_P(ServingSweep, BreakdownIsConsistent)
{
    coe::ServingConfig cfg;
    cfg.platform = std::get<0>(GetParam());
    cfg.batch = std::get<1>(GetParam());
    cfg.numExperts = 100;

    coe::ServingResult r = coe::analyticBatches(cfg, 40);
    ASSERT_FALSE(r.oom);
    EXPECT_GE(r.perBatch.routerSeconds, 0.0);
    EXPECT_GE(r.perBatch.switchSeconds, 0.0);
    EXPECT_GT(r.perBatch.execSeconds, 0.0);
    EXPECT_NEAR(r.perBatch.total(),
                r.perBatch.routerSeconds + r.perBatch.switchSeconds +
                    r.perBatch.execSeconds,
                1e-12);
    EXPECT_GE(r.missRate, 0.0);
    EXPECT_LE(r.missRate, 1.0);
    EXPECT_GE(r.perBatch.switchShare(), 0.0);
    EXPECT_LE(r.perBatch.switchShare(), 1.0);
    // Batch latency scales at least with the per-prompt exec time.
    EXPECT_GE(r.perBatch.execSeconds,
              r.expertSecondsPerPrompt * cfg.batch * 0.99);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ServingSweep,
    ::testing::Combine(::testing::Values(coe::Platform::Sn40l,
                                         coe::Platform::DgxA100,
                                         coe::Platform::DgxH100),
                       ::testing::Values(1, 4, 8)));

// ---------------------------------------------------------------------
// Sweep 5: allocator invariants across alignments.
// ---------------------------------------------------------------------

class AlignmentSweep : public ::testing::TestWithParam<std::int64_t>
{
};

TEST_P(AlignmentSweep, AllocationsAlignedAndNonOverlapping)
{
    std::int64_t align = GetParam();
    mem::FreeListAllocator alloc(1 << 20, align);
    sim::Rng rng(17);
    std::vector<std::pair<std::int64_t, std::int64_t>> live;

    for (int i = 0; i < 500; ++i) {
        if (live.empty() || rng.uniformDouble() < 0.65) {
            std::int64_t size =
                static_cast<std::int64_t>(rng.uniformInt(5000) + 1);
            auto off = alloc.allocate(size);
            if (!off)
                continue;
            EXPECT_EQ(*off % align, 0);
            for (const auto &blk : live) {
                bool overlap = *off < blk.first + blk.second &&
                               blk.first < *off + size;
                ASSERT_FALSE(overlap);
            }
            live.emplace_back(*off, size);
        } else {
            std::size_t idx = rng.uniformInt(live.size());
            alloc.free(live[idx].first);
            live.erase(live.begin() + static_cast<long>(idx));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Alignments, AlignmentSweep,
                         ::testing::Values(1, 64, 256, 4096));

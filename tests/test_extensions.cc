/**
 * @file
 * Tests for the extension features: predictive expert prefetching and
 * compiled-program invariants that the rest of the stack relies on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "coe/serving.h"
#include "compiler/compiler.h"
#include "models/transformer_builder.h"

using namespace sn40l;

TEST(Prefetch, HidesSwitchingBehindRouterAndExecution)
{
    auto serve = [](int batch, bool prefetch) {
        coe::ServingConfig cfg;
        cfg.platform = coe::Platform::Sn40l;
        cfg.numExperts = 150;
        cfg.batch = batch;
        cfg.predictivePrefetch = prefetch;
        return coe::analyticBatches(cfg, 100);
    };

    // Prefetch never hurts and strictly helps when there are misses.
    for (int batch : {1, 8}) {
        coe::ServingResult off = serve(batch, false);
        coe::ServingResult on = serve(batch, true);
        EXPECT_GT(off.missRate, 0.0);
        EXPECT_LE(on.perBatch.switchSeconds,
                  off.perBatch.switchSeconds);
        EXPECT_LT(on.perBatch.total(), off.perBatch.total());
        // Routing and execution are unchanged by prefetching.
        EXPECT_DOUBLE_EQ(on.perBatch.routerSeconds,
                         off.perBatch.routerSeconds);
        EXPECT_DOUBLE_EQ(on.perBatch.execSeconds,
                         off.perBatch.execSeconds);
    }

    // At BS=8, expert execution (tens of ms) dwarfs a 13 ms copy, so
    // practically all switching after the first prompt hides.
    coe::ServingResult on8 = serve(8, true);
    coe::ServingResult off8 = serve(8, false);
    EXPECT_LT(on8.perBatch.switchSeconds,
              off8.perBatch.switchSeconds * 0.2);
}

TEST(Program, KernelScheduleIsTopologicallyConsistent)
{
    // Within the kernel order, every tensor's producing kernel comes
    // no later than any consuming kernel.
    models::WorkloadSpec spec;
    spec.model = models::LlmConfig::mistral7b();
    spec.phase = models::Phase::Prefill;
    spec.seqLen = 1024;
    spec.tensorParallel = 8;
    graph::DataflowGraph g = models::buildTransformer(spec);

    arch::ChipConfig chip = arch::ChipConfig::sn40l();
    compiler::CompileOptions options;
    options.fusion.tensorParallel = 8;
    compiler::Program prog = compiler::compile(g, chip, options);

    std::vector<int> kernel_of(g.numOps(), -1);
    for (std::size_t ki = 0; ki < prog.kernels.size(); ++ki) {
        for (graph::OpId id : prog.kernels[ki].kernel.ops)
            kernel_of[id] = static_cast<int>(ki);
    }
    for (const auto &op : g.ops()) {
        for (graph::TensorId in : op.inputs) {
            const graph::Tensor &t = g.tensor(in);
            if (t.producer == graph::kInvalidOp ||
                t.kind == graph::TensorKind::KvCache) {
                continue;
            }
            EXPECT_LE(kernel_of[t.producer], kernel_of[op.id])
                << "tensor " << t.name;
        }
    }
}

TEST(Program, CostsAreFiniteAndPositive)
{
    models::WorkloadSpec spec;
    spec.model = models::LlmConfig::llama2_7b();
    spec.phase = models::Phase::Train;
    spec.seqLen = 1024;
    spec.batch = 2;
    spec.tensorParallel = 8;
    graph::DataflowGraph g = models::buildTransformer(spec);

    arch::ChipConfig chip = arch::ChipConfig::sn40l();
    compiler::CompileOptions options;
    options.fusion.tensorParallel = 8;
    compiler::Program prog = compiler::compile(g, chip, options);

    EXPECT_GT(prog.execSeconds(), 0.0);
    for (const auto &ke : prog.kernels) {
        EXPECT_GE(ke.cost.totalSeconds(), 0.0);
        EXPECT_TRUE(std::isfinite(ke.cost.totalSeconds()));
        EXPECT_GE(ke.kernel.launches, 1);
    }
    // Launch overhead strictly orders the two orchestration modes.
    EXPECT_GT(prog.estimatedSeconds(25e-6),
              prog.estimatedSeconds(0.25e-6));
}

TEST(Program, TrainingSpillsToDdrWhenActivationsExceedHbm)
{
    // Long-sequence large-batch training holds every forward
    // activation for the backward pass; on a single socket (64 GiB of
    // HBM) the planner must spill (Section V-A).
    models::WorkloadSpec spec;
    spec.model = models::LlmConfig::llama2_7b();
    spec.phase = models::Phase::Train;
    spec.seqLen = 4096;
    spec.batch = 16;
    spec.tensorParallel = 1;
    graph::DataflowGraph g = models::buildTransformer(spec);

    arch::ChipConfig chip = arch::ChipConfig::sn40l();
    compiler::CompileOptions options;
    options.fusion.tensorParallel = 1;
    compiler::Program prog = compiler::compile(g, chip, options);

    EXPECT_GT(prog.spilledSymbols, 0);
    EXPECT_GT(prog.ddrResidentBytes, 0.0);
    // Weights stay resident: spill traffic is activations.
    EXPECT_LE(prog.hbmResidentBytes,
              static_cast<double>(chip.hbmBytes));
}

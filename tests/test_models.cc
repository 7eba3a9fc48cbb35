/**
 * @file
 * Tests for the workload model zoo: parameter counts against the
 * models' published sizes, graph structure of the builders, and the
 * FFT convolution graphs.
 */

#include <gtest/gtest.h>

#include "models/fft_conv.h"
#include "models/llm_config.h"
#include "models/model_zoo.h"
#include "models/transformer_builder.h"
#include "sim/log.h"

using namespace sn40l;
using namespace sn40l::models;

namespace {

/** Expect |actual - expected| / expected below @p tol. */
void
expectWithin(double actual, double expected, double tol,
             const std::string &what)
{
    EXPECT_NEAR(actual / expected, 1.0, tol) << what << ": " << actual
                                             << " vs " << expected;
}

} // namespace

TEST(LlmConfig, ParamCountsMatchPublishedSizes)
{
    // Published totals: Llama2-7B 6.74B, Llama2-13B 13.0B, Llama2-70B
    // 69.0B, Llama3.1 8.0B/70.6B/405.9B, Mistral 7.24B, Falcon ~41B,
    // BLOOM 176.2B.
    expectWithin(LlmConfig::llama2_7b().paramCount(), 6.74e9, 0.01,
                 "llama2-7b");
    expectWithin(LlmConfig::llama2_13b().paramCount(), 13.0e9, 0.01,
                 "llama2-13b");
    expectWithin(LlmConfig::llama2_70b().paramCount(), 69.0e9, 0.01,
                 "llama2-70b");
    expectWithin(LlmConfig::llama31_8b().paramCount(), 8.0e9, 0.01,
                 "llama3.1-8b");
    expectWithin(LlmConfig::llama31_70b().paramCount(), 70.6e9, 0.01,
                 "llama3.1-70b");
    expectWithin(LlmConfig::llama31_405b().paramCount(), 405.9e9, 0.01,
                 "llama3.1-405b");
    expectWithin(LlmConfig::mistral7b().paramCount(), 7.24e9, 0.01,
                 "mistral-7b");
    expectWithin(LlmConfig::falcon40b().paramCount(), 41.3e9, 0.03,
                 "falcon-40b");
    expectWithin(LlmConfig::bloom176b().paramCount(), 176.2e9, 0.01,
                 "bloom-176b");
    // LLaVA = Llama2-7B + ~0.3B vision tower.
    std::int64_t delta = LlmConfig::llava15_7b().paramCount() -
                         LlmConfig::llama2_7b().paramCount();
    expectWithin(static_cast<double>(delta), 0.31e9, 0.1, "vit tower");
}

TEST(LlmConfig, SambaCoeIsATrillionParameters)
{
    // 150 Llama2-7B experts: the paper's "trillion total parameters".
    double total = 150.0 *
        static_cast<double>(LlmConfig::llama2_7b().paramCount());
    EXPECT_GT(total, 1.0e12);
    // BF16 weights per expert: ~13.5 GB.
    expectWithin(LlmConfig::llama2_7b().weightBytes(), 13.48e9, 0.01,
                 "expert bytes");
}

TEST(LlmConfig, SparseGptStoresCompressedWeights)
{
    LlmConfig dense = LlmConfig::llama2_13b();
    LlmConfig sparse = LlmConfig::sparseGpt13b();
    EXPECT_EQ(dense.paramCount(), sparse.paramCount());
    EXPECT_NEAR(sparse.weightBytes() / dense.weightBytes(), 0.125, 1e-9);
}

TEST(LlmConfig, KvBytesPerToken)
{
    // Llama2-7B: 2 * 32 layers * 4096 * 2B = 512 KiB per token.
    EXPECT_EQ(LlmConfig::llama2_7b().kvBytesPerToken(), 524288);
    // GQA shrinks the cache 4x on Mistral (8 of 32 KV heads).
    EXPECT_EQ(LlmConfig::mistral7b().kvBytesPerToken(), 524288 / 4);
}

TEST(LlmConfig, ValidationRejectsBadConfigs)
{
    LlmConfig c = LlmConfig::llama2_7b();
    c.numKvHeads = 5; // does not divide 32
    EXPECT_THROW(c.validate(), sim::FatalError);
    c = LlmConfig::llama2_7b();
    c.weightSparsity = 1.0;
    EXPECT_THROW(c.validate(), sim::FatalError);
}

TEST(TransformerBuilder, PrefillGraphShape)
{
    WorkloadSpec spec;
    spec.model = LlmConfig::llama2_7b();
    spec.phase = Phase::Prefill;
    spec.batch = 1;
    spec.seqLen = 4096;
    graph::DataflowGraph g = buildTransformer(spec);

    // ~23 ops per layer x 32 layers plus embedding and head.
    EXPECT_GT(g.numOps(), 32u * 20);
    EXPECT_LT(g.numOps(), 32u * 30);

    // Weight bytes equal the config's accounting.
    expectWithin(g.weightBytes(), spec.model.weightBytes(), 1e-6,
                 "weight bytes");

    // Prefill FLOPs ~ 2 * params * tokens (attention adds more).
    double dense = 2.0 *
        static_cast<double>(spec.model.paramCount()) * 4096;
    EXPECT_GT(g.totalFlops(), dense * 0.95);
    EXPECT_LT(g.totalFlops(), dense * 1.35);
}

TEST(TransformerBuilder, DecodeFlopsAreTokenSized)
{
    WorkloadSpec spec;
    spec.model = LlmConfig::llama2_7b();
    spec.phase = Phase::Decode;
    spec.batch = 1;
    spec.seqLen = 4096;
    graph::DataflowGraph g = buildTransformer(spec);

    double dense = 2.0 * static_cast<double>(spec.model.paramCount());
    EXPECT_GT(g.totalFlops(), dense * 0.9);
    EXPECT_LT(g.totalFlops(), dense * 1.3);
}

TEST(TransformerBuilder, TrainRoughlyTriplesPrefillFlops)
{
    WorkloadSpec spec;
    spec.model = LlmConfig::llama2_7b();
    spec.phase = Phase::Prefill;
    spec.batch = 1;
    spec.seqLen = 2048;
    double fwd = buildTransformer(spec).totalFlops();

    spec.phase = Phase::Train;
    double train = buildTransformer(spec).totalFlops();
    EXPECT_GT(train, 2.6 * fwd);
    EXPECT_LT(train, 3.6 * fwd);
}

TEST(TransformerBuilder, TensorParallelEmitsAllReduce)
{
    WorkloadSpec spec;
    spec.model = LlmConfig::llama2_7b();
    spec.phase = Phase::Decode;
    spec.seqLen = 128;
    spec.tensorParallel = 8;
    graph::DataflowGraph g = buildTransformer(spec);

    int allreduce = 0;
    for (const auto &op : g.ops()) {
        if (op.kind == graph::OpKind::AllReduce)
            ++allreduce;
    }
    EXPECT_EQ(allreduce, 2 * spec.model.numLayers);

    spec.tensorParallel = 1;
    graph::DataflowGraph g1 = buildTransformer(spec);
    for (const auto &op : g1.ops())
        EXPECT_NE(op.kind, graph::OpKind::AllReduce);
}

TEST(TransformerBuilder, RejectsNonPositiveTensorParallel)
{
    // The compiler used to clamp these to 1 and report "TP0".
    WorkloadSpec spec;
    spec.model = LlmConfig::llama2_7b();
    spec.seqLen = 128;
    for (int tp : {0, -1}) {
        spec.tensorParallel = tp;
        EXPECT_THROW(buildTransformer(spec), sim::FatalError) << tp;
    }
}

TEST(TransformerBuilder, FalconParallelBlocksUseOneAllReduce)
{
    WorkloadSpec spec;
    spec.model = LlmConfig::falcon40b();
    spec.phase = Phase::Decode;
    spec.seqLen = 128;
    spec.tensorParallel = 8;
    graph::DataflowGraph g = buildTransformer(spec);
    int allreduce = 0;
    for (const auto &op : g.ops()) {
        if (op.kind == graph::OpKind::AllReduce)
            ++allreduce;
    }
    EXPECT_EQ(allreduce, spec.model.numLayers);
}

TEST(TransformerBuilder, KvCacheAppendedEachLayer)
{
    WorkloadSpec spec;
    spec.model = LlmConfig::mistral7b();
    spec.phase = Phase::Decode;
    spec.seqLen = 2048;
    graph::DataflowGraph g = buildTransformer(spec);

    std::int64_t kv_bytes = 0;
    for (const auto &t : g.tensors()) {
        if (t.kind == graph::TensorKind::KvCache)
            kv_bytes += t.bytes();
    }
    // Cache spans context+1 tokens.
    EXPECT_EQ(kv_bytes, spec.model.kvBytesPerToken() * 2049);
}

TEST(TransformerBuilder, LlavaPrefillIncludesVisionTower)
{
    WorkloadSpec spec;
    spec.model = LlmConfig::llava15_7b();
    spec.phase = Phase::Prefill;
    spec.seqLen = 4096;
    graph::DataflowGraph g = buildTransformer(spec);

    bool has_vit = false;
    for (const auto &op : g.ops()) {
        if (op.name.rfind("vit.", 0) == 0)
            has_vit = true;
    }
    EXPECT_TRUE(has_vit);

    // Decode does not rerun the vision tower.
    spec.phase = Phase::Decode;
    graph::DataflowGraph gd = buildTransformer(spec);
    for (const auto &op : gd.ops())
        EXPECT_NE(op.name.rfind("vit.", 0), 0u);
}

TEST(FftConv, Fig3ExampleMatchesIntensityTest)
{
    graph::DataflowGraph g = buildFig3Example();
    EXPECT_EQ(g.numOps(), 4u);
    EXPECT_DOUBLE_EQ(g.totalFlops(), 537919488.0);
}

TEST(FftConv, MonarchFlopsMatchRadixSum)
{
    FftConvSpec spec;
    spec.seqLen = 1LL << 20;
    spec.radices = {128, 128, 64};
    spec.channels = 64;
    spec.gated = false;
    graph::DataflowGraph g = buildFftConv(spec);

    // GEMM FLOPs: 2 directions * 2*B*C*N*sum(radices).
    double bc = 64.0;
    double n = static_cast<double>(spec.seqLen);
    double gemm = 2.0 * 2.0 * bc * n * (128 + 128 + 64);
    // Elementwise (twiddles, filter) adds a few C*N terms on top.
    EXPECT_GT(g.totalFlops(), gemm);
    EXPECT_LT(g.totalFlops(), gemm * 1.05);
}

TEST(FftConv, SpecValidation)
{
    FftConvSpec spec;
    spec.radices = {128, 128}; // product != 1M
    EXPECT_THROW(spec.validate(), sim::FatalError);
    spec = FftConvSpec{};
    spec.channels = 0;
    EXPECT_THROW(spec.validate(), sim::FatalError);
}

TEST(ModelZoo, PaperSuiteIsComplete)
{
    auto suite = paperBenchmarks();
    ASSERT_EQ(suite.size(), 17u);
    EXPECT_EQ(suite.front().name, "llama7B-4k-prefill");
    EXPECT_EQ(suite.back().name, "FlashFFTConv");
    EXPECT_EQ(suite.back().sockets, 1);

    // Every benchmark builds a valid graph.
    for (const auto &bench : suite) {
        graph::DataflowGraph g = bench.build();
        EXPECT_GT(g.numOps(), 0u) << bench.name;
    }
}

TEST(ModelZoo, Llama31SpecsMatchTableFour)
{
    auto specs = llama31Specs();
    ASSERT_EQ(specs.size(), 3u);
    for (const auto &spec : specs) {
        EXPECT_EQ(spec.seqLen, 8192);
        EXPECT_EQ(spec.tensorParallel, 16);
        EXPECT_EQ(spec.phase, Phase::Decode);
    }
}

#include "models/transformer_builder.h"

#include <functional>
#include <vector>

#include "sim/log.h"

namespace sn40l::models {

using graph::DataflowGraph;
using graph::DType;
using graph::OpId;
using graph::OpKind;
using graph::TensorId;
using graph::TensorKind;
using graph::TensorShape;

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Prefill: return "prefill";
      case Phase::Decode: return "decode";
      case Phase::Train: return "train";
    }
    sim::panic("phaseName: unknown phase");
}

std::string
WorkloadSpec::str() const
{
    return model.name + "-" + std::to_string(seqLen) + "-" +
           phaseName(phase) + "-b" + std::to_string(batch);
}

namespace {

/**
 * Incremental graph builder holding the spec-wide dimensions and the
 * deferred backward-pass emitters for training graphs.
 */
class Builder
{
  public:
    explicit Builder(const WorkloadSpec &spec)
        : spec_(spec), cfg_(spec.model), g_(spec.str()),
          dtype_(cfg_.dtype)
    {
        tokens_ = spec.tokens();
        ctx_ = spec.contextLen();
    }

    DataflowGraph build();

  private:
    TensorId
    act(const std::string &name, TensorShape shape)
    {
        return g_.addTensor(name, std::move(shape), dtype_,
                            TensorKind::Activation);
    }

    TensorId
    weight(const std::string &name, TensorShape shape)
    {
        return g_.addTensor(name, std::move(shape), dtype_,
                            TensorKind::Weight);
    }

    /** Gemm with a fresh weight [k, n]; records backward emitters. */
    TensorId
    gemm(const std::string &name, TensorId x, std::int64_t k,
         std::int64_t n, TensorShape out_shape)
    {
        TensorId w = weight(name + ".w", {k, n});
        TensorId out = act(name, std::move(out_shape));
        g_.addOp(OpKind::Gemm, name, {x, w}, {out},
                 cfg_.weightSparsity);
        if (spec_.phase == Phase::Train)
            recordGemmBackward(name, x, w, out);
        return out;
    }

    /** Elementwise/norm op producing a same-shaped activation. */
    TensorId
    simd(OpKind kind, const std::string &name, std::vector<TensorId> ins)
    {
        TensorShape shape = g_.tensor(ins[0]).shape;
        TensorId out = act(name, shape);
        g_.addOp(kind, name, std::move(ins), {out});
        if (spec_.phase == Phase::Train)
            recordSimdBackward(name, shape);
        return out;
    }

    void
    recordGemmBackward(const std::string &name, TensorId x, TensorId w,
                       TensorId out)
    {
        bwd_.push_back([this, name, x, w, out]() {
            (void)out;
            const TensorShape xs = g_.tensor(x).shape;
            const TensorShape ws = g_.tensor(w).shape;
            // Canonical [M, N] gradient of the op's output.
            std::int64_t m = xs.elems() / xs.dims.back();
            std::int64_t n = ws.dims[1];
            TensorId d_out = act(name + ".dout", {m, n});
            g_.addOp(OpKind::Copy, name + ".dout.src", {grad_}, {d_out});
            TensorId wt = act(name + ".wT", {ws.dims[1], ws.dims[0]});
            g_.addOp(OpKind::Transpose, name + ".wT.t", {w}, {wt});
            TensorId dx = act(name + ".dx", xs);
            g_.addOp(OpKind::Gemm, name + ".dx", {d_out, wt}, {dx},
                     cfg_.weightSparsity);
            // dW = X^T x dOut
            TensorId xt = act(name + ".xT",
                              {xs.dims.back(), xs.elems() / xs.dims.back()});
            g_.addOp(OpKind::Transpose, name + ".xT.t", {x}, {xt});
            TensorId dw = act(name + ".dw", ws);
            g_.addOp(OpKind::Gemm, name + ".dw", {xt, d_out}, {dw},
                     cfg_.weightSparsity);
            // Optimizer update (SGD-style fused update).
            TensorId wn = g_.addTensor(name + ".w_next", ws, dtype_,
                                       TensorKind::Output);
            g_.addOp(OpKind::Add, name + ".update", {w, dw}, {wn});
            // Chain: this op's input gradient feeds the next (earlier)
            // backward step.
            grad_ = dx;
        });
    }

    void
    recordSimdBackward(const std::string &name, TensorShape shape)
    {
        bwd_.push_back([this, name, shape]() {
            TensorId dx = act(name + ".dgrad", shape);
            g_.addOp(OpKind::Mul, name + ".bwd", {grad_}, {dx});
            // Keep the chain alive: mark consumed via a cheap reduce.
            TensorId sink = g_.addTensor(name + ".dsink", {1}, dtype_,
                                         TensorKind::Output);
            g_.addOp(OpKind::Reduce, name + ".dsink.r", {dx}, {sink});
        });
    }

    TensorId embedTokens();
    TensorId visionTower(TensorId text_embed);
    TensorId decoderLayer(int layer, TensorId x);
    TensorId attention(const std::string &p, int layer, TensorId xn);
    TensorId ffn(const std::string &p, TensorId xn);
    TensorId maybeAllReduce(const std::string &name, TensorId x);
    void head(TensorId x);
    void emitBackward();

    const WorkloadSpec &spec_;
    const LlmConfig &cfg_;
    DataflowGraph g_;
    DType dtype_;
    std::int64_t tokens_ = 0;
    std::int64_t ctx_ = 0;
    TensorId grad_ = graph::kInvalidTensor;
    std::vector<std::function<void()>> bwd_;
};

TensorId
Builder::embedTokens()
{
    TensorId ids = g_.addTensor("token_ids", {tokens_}, DType::INT32,
                                TensorKind::Input);
    TensorId table = weight("embed.table", {cfg_.vocabSize, cfg_.dModel});
    TensorId x0 = act("embed.out", {tokens_, cfg_.dModel});
    g_.addOp(OpKind::Embedding, "embed", {ids, table}, {x0});
    return x0;
}

TensorId
Builder::visionTower(TensorId text_embed)
{
    const VisionTowerConfig &v = *cfg_.vision;
    std::int64_t patches =
        static_cast<std::int64_t>(spec_.batch) * v.numPatches;

    TensorId pixels = g_.addTensor("vit.pixels", {patches, v.patchDim},
                                   dtype_, TensorKind::Input);
    TensorId pe_w = weight("vit.patch_embed.w", {v.patchDim, v.dModel});
    TensorId x = act("vit.embed", {patches, v.dModel});
    g_.addOp(OpKind::Gemm, "vit.patch_embed", {pixels, pe_w}, {x});

    std::int64_t vd = v.dModel;
    std::int64_t hd = vd / v.numHeads;
    std::int64_t bh = static_cast<std::int64_t>(spec_.batch) * v.numHeads;

    for (int l = 0; l < v.numLayers; ++l) {
        std::string p = "vit.L" + std::to_string(l) + ".";
        TensorId nw1 = weight(p + "ln1.w", {vd});
        TensorId n1 = act(p + "ln1", {patches, vd});
        g_.addOp(OpKind::LayerNorm, p + "ln1", {x, nw1}, {n1});

        TensorId qkv_w = weight(p + "qkv.w", {vd, 3 * vd});
        TensorId qkv = act(p + "qkv", {patches, 3 * vd});
        g_.addOp(OpKind::Gemm, p + "qkv", {n1, qkv_w}, {qkv});

        // Split the fused projection into per-head views; the K view
        // is transposed for the score GEMM.
        TensorId qv = act(p + "qview", {bh, v.numPatches, hd});
        TensorId kt = act(p + "kT", {bh, hd, v.numPatches});
        TensorId vv = act(p + "vview", {bh, v.numPatches, hd});
        g_.addOp(OpKind::Split, p + "split_qkv", {qkv}, {qv, kt, vv});

        TensorId scores = act(p + "scores",
                              {bh, v.numPatches, v.numPatches});
        g_.addOp(OpKind::BatchGemm, p + "scores", {qv, kt}, {scores});

        TensorId sm = act(p + "softmax", {bh, v.numPatches, v.numPatches});
        g_.addOp(OpKind::Softmax, p + "softmax", {scores}, {sm});

        TensorId ctx = act(p + "ctx", {patches, vd});
        g_.addOp(OpKind::BatchGemm, p + "ctx", {sm, vv}, {ctx});

        TensorId o = gemm(p + "o", ctx, vd, vd, {patches, vd});
        TensorId r1 = act(p + "resid1", {patches, vd});
        g_.addOp(OpKind::Add, p + "resid1", {x, o}, {r1});

        TensorId nw2 = weight(p + "ln2.w", {vd});
        TensorId n2 = act(p + "ln2", {patches, vd});
        g_.addOp(OpKind::LayerNorm, p + "ln2", {r1, nw2}, {n2});

        TensorId fc1 = gemm(p + "fc1", n2, vd, v.dFfn, {patches, v.dFfn});
        TensorId ge = simd(OpKind::Gelu, p + "gelu", {fc1});
        TensorId fc2 = gemm(p + "fc2", ge, v.dFfn, vd, {patches, vd});
        TensorId r2 = act(p + "resid2", {patches, vd});
        g_.addOp(OpKind::Add, p + "resid2", {r1, fc2}, {r2});
        x = r2;
    }

    // Project into the language model embedding space and concatenate
    // with the text embedding.
    TensorId proj = gemm("vit.proj", x, v.dModel, cfg_.dModel,
                         {patches, cfg_.dModel});
    TensorId joint = act("mm.joint",
                         {tokens_ + patches, cfg_.dModel});
    g_.addOp(OpKind::Concat, "mm.concat", {proj, text_embed}, {joint});
    return joint;
}

TensorId
Builder::maybeAllReduce(const std::string &name, TensorId x)
{
    if (spec_.tensorParallel <= 1)
        return x;
    TensorId out = act(name, g_.tensor(x).shape);
    g_.addOp(OpKind::AllReduce, name, {x}, {out});
    return out;
}

TensorId
Builder::attention(const std::string &p, int layer, TensorId xn)
{
    (void)layer;
    std::int64_t d = cfg_.dModel;
    std::int64_t hd = cfg_.headDim();
    std::int64_t kv = cfg_.kvDim();
    std::int64_t b = spec_.batch;
    std::int64_t bh = b * cfg_.numHeads;
    std::int64_t bkv = b * cfg_.numKvHeads;
    // tokens_/batch, so multimodal prefixes lengthen the sequence.
    std::int64_t s_new = spec_.phase == Phase::Decode ? 1 : tokens_ / b;

    TensorId q = gemm(p + "q", xn, d, d, {bh, s_new, hd});
    TensorId k = gemm(p + "k", xn, d, kv, {bkv, hd, s_new});
    TensorId v = gemm(p + "v", xn, d, kv, {bkv, s_new, hd});

    TensorId qr = simd(OpKind::Rope, p + "rope_q", {q});
    TensorId kr = simd(OpKind::Rope, p + "rope_k", {k});

    // Persistent caches; prefill constructs them, decode extends them.
    TensorId k_cache = g_.addTensor(p + "kcache", {bkv, hd, ctx_}, dtype_,
                                    TensorKind::KvCache);
    TensorId v_cache = g_.addTensor(p + "vcache", {bkv, ctx_, hd}, dtype_,
                                    TensorKind::KvCache);
    g_.addOp(OpKind::KvAppend, p + "kappend", {kr}, {k_cache});
    g_.addOp(OpKind::KvAppend, p + "vappend", {v}, {v_cache});

    // Prefill attends over the fresh K/V; decode attends over the
    // whole cache.
    bool decode = spec_.phase == Phase::Decode;
    TensorId k_opnd = decode ? k_cache : kr;
    TensorId v_opnd = decode ? v_cache : v;
    std::int64_t span = decode ? ctx_ : s_new;

    TensorId scores = act(p + "scores", {bh, s_new, span});
    g_.addOp(OpKind::BatchGemm, p + "scores", {qr, k_opnd}, {scores});
    TensorId scaled = simd(OpKind::Scale, p + "scale", {scores});
    TensorId sm = simd(OpKind::Softmax, p + "softmax", {scaled});

    TensorId ctx_out = act(p + "ctx", {b * s_new, d});
    g_.addOp(OpKind::BatchGemm, p + "ctx", {sm, v_opnd}, {ctx_out});

    return gemm(p + "o", ctx_out, d, d, {b * s_new, d});
}

TensorId
Builder::ffn(const std::string &p, TensorId xn)
{
    std::int64_t d = cfg_.dModel;
    std::int64_t f = cfg_.dFfn;
    std::int64_t t = tokens_;

    if (cfg_.ffn == FfnKind::SwiGLU) {
        TensorId gate = gemm(p + "gate", xn, d, f, {t, f});
        TensorId up = gemm(p + "up", xn, d, f, {t, f});
        TensorId sg = simd(OpKind::Silu, p + "silu", {gate});
        TensorId prod = simd(OpKind::Mul, p + "gated", {sg, up});
        return gemm(p + "down", prod, f, d, {t, d});
    }
    TensorId up = gemm(p + "up", xn, d, f, {t, f});
    TensorId ge = simd(OpKind::Gelu, p + "gelu", {up});
    return gemm(p + "down", ge, f, d, {t, d});
}

TensorId
Builder::decoderLayer(int layer, TensorId x)
{
    std::string p = "L" + std::to_string(layer) + ".";
    std::int64_t d = cfg_.dModel;
    OpKind norm_kind = cfg_.norm == NormKind::RmsNorm ? OpKind::RmsNorm
                                                      : OpKind::LayerNorm;

    TensorId nw1 = weight(p + "norm1.w", {d});
    TensorId n1 = act(p + "norm1", {tokens_, d});
    g_.addOp(norm_kind, p + "norm1", {x, nw1}, {n1});

    if (cfg_.parallelBlocks) {
        // Falcon: attention and MLP both read the single norm; their
        // outputs sum with the residual, and tensor parallelism needs
        // only one all-reduce.
        TensorId attn = attention(p, layer, n1);
        TensorId mlp = ffn(p, n1);
        TensorId both = act(p + "both", {tokens_, d});
        g_.addOp(OpKind::Add, p + "both", {attn, mlp}, {both});
        TensorId red = maybeAllReduce(p + "allreduce", both);
        TensorId out = act(p + "resid", {tokens_, d});
        g_.addOp(OpKind::Add, p + "resid", {x, red}, {out});
        return out;
    }

    TensorId attn = attention(p, layer, n1);
    TensorId attn_r = maybeAllReduce(p + "allreduce1", attn);
    TensorId r1 = act(p + "resid1", {tokens_, d});
    g_.addOp(OpKind::Add, p + "resid1", {x, attn_r}, {r1});

    TensorId nw2 = weight(p + "norm2.w", {d});
    TensorId n2 = act(p + "norm2", {tokens_, d});
    g_.addOp(norm_kind, p + "norm2", {r1, nw2}, {n2});

    TensorId mlp = ffn(p, n2);
    TensorId mlp_r = maybeAllReduce(p + "allreduce2", mlp);
    TensorId r2 = act(p + "resid2", {tokens_, d});
    g_.addOp(OpKind::Add, p + "resid2", {r1, mlp_r}, {r2});
    return r2;
}

void
Builder::head(TensorId x)
{
    std::int64_t d = cfg_.dModel;
    OpKind norm_kind = cfg_.norm == NormKind::RmsNorm ? OpKind::RmsNorm
                                                      : OpKind::LayerNorm;
    TensorId nw = weight("final_norm.w", {d});

    if (spec_.phase == Phase::Train) {
        // Training computes logits and loss over every position.
        TensorId nf = act("final_norm", {tokens_, d});
        g_.addOp(norm_kind, "final_norm", {x, nw}, {nf});
        TensorId logits = gemm("lm_head", nf, d, cfg_.vocabSize,
                               {tokens_, cfg_.vocabSize});
        TensorId probs = simd(OpKind::Softmax, "loss.softmax", {logits});
        TensorId loss = g_.addTensor("loss", {1}, DType::FP32,
                                     TensorKind::Activation);
        g_.addOp(OpKind::Reduce, "loss.reduce", {probs}, {loss});
        // Seed gradient for the backward pass.
        grad_ = act("dloss", {tokens_, d});
        g_.addOp(OpKind::Mul, "dloss.seed", {loss}, {grad_});
        return;
    }

    // Inference emits logits for the last position of each sequence.
    TensorId last = act("last_hidden", {spec_.batch, d});
    g_.addOp(OpKind::Gather, "gather_last", {x}, {last});
    TensorId nf = act("final_norm", {spec_.batch, d});
    g_.addOp(norm_kind, "final_norm", {last, nw}, {nf});

    TensorId wl = weight("lm_head.w", {d, cfg_.vocabSize});
    TensorId logits = act("logits", {spec_.batch, cfg_.vocabSize});
    g_.addOp(OpKind::Gemm, "lm_head", {nf, wl}, {logits});

    TensorId token = g_.addTensor("next_token", {spec_.batch},
                                  DType::INT32, TensorKind::Output);
    g_.addOp(OpKind::Sample, "sample", {logits}, {token});
}

void
Builder::emitBackward()
{
    if (grad_ == graph::kInvalidTensor)
        sim::panic("emitBackward: no gradient seed");
    // Reverse program order mirrors reverse-mode differentiation.
    for (auto it = bwd_.rbegin(); it != bwd_.rend(); ++it)
        (*it)();
    // Sink the final input gradient (embedding grad in a real run).
    TensorId dinput = g_.addTensor("dinput", {1}, DType::FP32,
                                   TensorKind::Output);
    g_.addOp(OpKind::Reduce, "dinput.sink", {grad_}, {dinput});
}

DataflowGraph
Builder::build()
{
    cfg_.validate();
    if (spec_.batch <= 0 || spec_.seqLen <= 0)
        sim::fatal("WorkloadSpec " + spec_.str() + ": bad batch/seq");
    if (spec_.tensorParallel < 1)
        sim::fatal("WorkloadSpec " + spec_.str() +
                   ": tensorParallel (--tp) must be at least 1, got " +
                   std::to_string(spec_.tensorParallel));
    if (cfg_.vision && spec_.phase == Phase::Train)
        sim::fatal("WorkloadSpec " + spec_.str() +
                   ": multimodal training not modeled");

    TensorId x = embedTokens();
    if (cfg_.vision && spec_.phase == Phase::Prefill) {
        x = visionTower(x);
        // The joint sequence is longer than the text alone.
        tokens_ += static_cast<std::int64_t>(spec_.batch) *
                   cfg_.vision->numPatches;
        ctx_ = tokens_ / spec_.batch;
    }

    for (int l = 0; l < cfg_.numLayers; ++l)
        x = decoderLayer(l, x);
    head(x);

    if (spec_.phase == Phase::Train)
        emitBackward();

    g_.validate();
    return std::move(g_);
}

} // namespace

graph::DataflowGraph
buildTransformer(const WorkloadSpec &spec)
{
    Builder builder(spec);
    return builder.build();
}

} // namespace sn40l::models

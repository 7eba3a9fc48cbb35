/**
 * @file
 * Speculative-decoding ablation: tokens/s versus draft acceptance
 * rate on the live EventDriven engine. Every point serves the same
 * backlogged request stream (identical arrivals, identical routing);
 * only the per-request draft/verify shape changes, so throughput
 * differences are purely the decode-loop geometry:
 *
 *  - accept 0.0: every draft token is rejected, so each verify step
 *    emits exactly one token and the run pays the full draft-model
 *    overhead (1 + gamma * draft_ratio per token) for nothing —
 *    speculative decoding MUST lose to plain autoregressive here.
 *
 *  - accept >= 0.8: most draft tokens land, several tokens retire per
 *    verify step, and spec-decode MUST beat the autoregressive
 *    baseline (the paper-level claim this gate protects).
 *
 * The common-random-numbers sampler in runtime/spec_decode.h draws
 * exactly gamma uniforms per step, so a higher acceptance rate
 * pointwise dominates a lower one on the same seed: tokens/s must be
 * monotone non-decreasing across the sweep. The process exits
 * non-zero if the monotone ramp or either corner flips, making this a
 * CI gate for the spec-decode serving path.
 *
 *   abl_spec_decode [--smoke] [--requests N] [--json FILE]
 *
 * Emits BENCH_spec_decode.json.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "perf_common.h"
#include "runtime/spec_decode.h"
#include "util/json.h"
#include "util/table.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

struct Point
{
    double accept = 0.0; ///< negative marks the autoregressive baseline
    double tokensPerSec = 0.0;
    double p95 = 0.0;
    std::int64_t specSteps = 0;
    double tokensPerStep = 0.0;
    double expectedTokensPerStep = 0.0;
};

ServingConfig
baseConfig(int requests)
{
    ServingConfig cfg;
    cfg.platform = Platform::Sn40l;
    // A small, fully-resident expert set: no DMA misses, so the sweep
    // isolates the decode-loop shape rather than cache behaviour.
    cfg.numExperts = 8;
    cfg.batch = 8;
    cfg.promptLen = 128;    // decode-dominated requests
    cfg.outputTokens = 200; // paper's translation-length responses
    cfg.streamRequests = requests;
    // Far beyond service capacity: the engine stays backlogged and
    // tokens/s measures the service rate, not the arrival rate.
    cfg.arrivalRatePerSec = 1000.0;
    cfg.seed = 7;
    return cfg;
}

Point
runPoint(const ServingConfig &cfg, double accept)
{
    Point p;
    p.accept = accept;
    ServingResult r = ServingSimulator(cfg).run();
    if (r.oom || r.stream.completed != cfg.streamRequests) {
        std::cerr << "abl_spec_decode: point accept=" << accept
                  << " did not complete\n";
        std::exit(1);
    }
    p.tokensPerSec = r.stream.throughputTokensPerSec;
    p.p95 = r.stream.p95LatencySeconds;
    p.specSteps = r.stream.specSteps;
    p.tokensPerStep = r.stream.specTokensPerStep;
    if (cfg.specDecode.enabled) {
        runtime::SpecDecodeConfig sd;
        sd.gamma = cfg.specDecode.gamma;
        sd.acceptRate = accept;
        p.expectedTokensPerStep = sd.expectedTokensPerStep();
    }
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    int requests = 2'000;
    bool requests_set = false;
    std::string json_path = "BENCH_spec_decode.json";

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "abl_spec_decode: " << arg
                          << " expects a value\n";
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--smoke") smoke = true;
        else if (arg == "--requests") {
            requests = std::stoi(next());
            requests_set = true;
        }
        else if (arg == "--json") json_path = next();
        else {
            std::cerr << "usage: abl_spec_decode [--smoke] "
                      << "[--requests N] [--json FILE]\n";
            return 1;
        }
    }
    if (smoke && !requests_set)
        requests = 300;

    const int gamma = 4;
    const double draft_ratio = 0.05;
    const std::vector<double> accepts = {0.0, 0.2, 0.4,
                                         0.6, 0.8, 0.95};

    std::cout << "Speculative-decoding ablation: " << requests
              << " backlogged requests, gamma " << gamma
              << ", draft ratio " << draft_ratio
              << ", 200 output tokens, batch 8.\n"
              << "Same arrivals at every point; only the draft/verify "
              << "shape changes.\n\n";

    ServingConfig base = baseConfig(requests);
    Point ar = runPoint(base, -1.0); // autoregressive baseline

    std::vector<Point> pts;
    for (double a : accepts) {
        ServingConfig cfg = base;
        cfg.specDecode.enabled = true;
        cfg.specDecode.gamma = gamma;
        cfg.specDecode.acceptRate = a;
        cfg.specDecode.draftRatio = draft_ratio;
        pts.push_back(runPoint(cfg, a));
    }

    util::Table table({"Mode", "Tokens/s", "vs AR", "p95",
                       "Verify steps", "Tokens/step", "E[tokens/step]"});
    table.addRow({"autoregressive",
                  util::formatDouble(ar.tokensPerSec, 0), "1.00x",
                  util::formatSeconds(ar.p95), "-", "-", "-"});
    for (const Point &p : pts) {
        table.addRow(
            {"spec accept=" + util::formatDouble(p.accept, 2),
             util::formatDouble(p.tokensPerSec, 0),
             util::formatDouble(p.tokensPerSec / ar.tokensPerSec, 2) +
                 "x",
             util::formatSeconds(p.p95), std::to_string(p.specSteps),
             util::formatDouble(p.tokensPerStep, 2),
             util::formatDouble(p.expectedTokensPerStep, 2)});
    }
    table.print(std::cout);

    // Corner checks. CRN coupling makes the ramp deterministic and
    // pointwise-dominated, so the tolerance only absorbs makespan
    // rounding at the stream edges.
    bool monotone = true;
    for (std::size_t i = 1; i < pts.size(); ++i) {
        if (pts[i].tokensPerSec < 0.999 * pts[i - 1].tokensPerSec)
            monotone = false;
    }
    bool loses_at_zero = pts.front().tokensPerSec < ar.tokensPerSec;
    bool wins_high = true;
    for (const Point &p : pts) {
        if (p.accept >= 0.8 && p.tokensPerSec <= ar.tokensPerSec)
            wins_high = false;
    }
    bool holds = monotone && loses_at_zero && wins_high;

    std::cout << "\n"
              << (holds
                      ? "spec-decode corner holds: monotone in accept "
                        "rate, pays for its draft\noverhead at accept "
                        "0, beats autoregressive at accept >= 0.8.\n"
                      : "WARNING: the spec-decode corner flipped "
                        "(monotone=" + std::to_string(monotone) +
                            " loses_at_zero=" +
                            std::to_string(loses_at_zero) +
                            " wins_high=" + std::to_string(wins_high) +
                            ").\n");

    std::ofstream out(json_path);
    {
        util::JsonWriter w(out, /*pretty=*/true);
        w.beginObject()
            .field("bench", "abl_spec_decode")
            .field("commit", bench::gitCommitHash())
            .field("timestamp_utc", bench::isoTimestampUtc())
            .field("mode", smoke ? "smoke" : "full")
            .field("requests", requests)
            .field("gamma", gamma)
            .field("draft_ratio", draft_ratio)
            .field("ar_tokens_per_sec", ar.tokensPerSec)
            .field("ar_p95_s", ar.p95);
        w.key("points").beginArray();
        for (const Point &p : pts) {
            w.beginObject()
                .field("accept", p.accept)
                .field("tokens_per_sec", p.tokensPerSec)
                .field("speedup_vs_ar", p.tokensPerSec / ar.tokensPerSec)
                .field("p95_s", p.p95)
                .field("spec_steps", p.specSteps)
                .field("tokens_per_step", p.tokensPerStep)
                .field("expected_tokens_per_step",
                       p.expectedTokensPerStep)
                .endObject();
        }
        w.endArray();
        w.field("monotone", monotone)
            .field("loses_at_zero_accept", loses_at_zero)
            .field("wins_at_high_accept", wins_high)
            .field("corner_holds", holds)
            .endObject();
        out << "\n";
    }
    std::cout << "wrote " << json_path << "\n";
    return holds ? 0 : 1;
}

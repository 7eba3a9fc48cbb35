/**
 * @file
 * Tests for the RDN traffic analyzer (Section VII performance
 * debugging), the launch-phase gap model, and the Chrome-trace
 * writer.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "arch/agcu.h"
#include "compiler/placer.h"
#include "compiler/traffic_analyzer.h"
#include "models/transformer_builder.h"
#include "runtime/executor.h"
#include "runtime/runner.h"
#include "sim/log.h"

using namespace sn40l;

namespace {

compiler::Kernel
placedDecodeKernel(const graph::DataflowGraph &g,
                   const arch::ChipConfig &chip,
                   const compiler::FusionOptions &opt)
{
    auto kernels = compiler::partitionGraph(g, chip, opt);
    compiler::Kernel k = kernels.at(1); // a mid-graph fused kernel
    compiler::placeKernel(g, chip, opt, k);
    return k;
}

} // namespace

TEST(TrafficAnalyzer, FindsFlowsAndBoundedCongestion)
{
    models::WorkloadSpec spec;
    spec.model = models::LlmConfig::llama2_7b();
    spec.phase = models::Phase::Decode;
    spec.seqLen = 1024;
    spec.tensorParallel = 8;
    graph::DataflowGraph g = models::buildTransformer(spec);

    arch::ChipConfig chip = arch::ChipConfig::sn40l();
    compiler::FusionOptions opt;
    opt.tensorParallel = 8;
    compiler::Kernel k = placedDecodeKernel(g, chip, opt);

    compiler::TrafficAnalyzer analyzer(chip);
    auto report = analyzer.analyze(g, k, 50e-6, 8);

    EXPECT_GT(report.flows, k.ops.size() / 2);
    EXPECT_GE(report.congestionFactor, report.throttledFactor);
    EXPECT_GE(report.throttledFactor, 1.0);
    EXPECT_EQ(report.stageCenters.size(), k.stages.size());
    // Every stage center is on the socket-level mesh.
    int rows = chip.meshRows * chip.tileCount();
    for (const auto &c : report.stageCenters) {
        EXPECT_GE(c.x, 0);
        EXPECT_LT(c.x, chip.meshCols);
        EXPECT_GE(c.y, 0);
        EXPECT_LT(c.y, rows);
    }
}

TEST(TrafficAnalyzer, ThrottlingHelpsExactlyWhenBursty)
{
    models::WorkloadSpec spec;
    spec.model = models::LlmConfig::llama2_7b();
    spec.phase = models::Phase::Decode;
    spec.seqLen = 1024;
    spec.tensorParallel = 8;
    graph::DataflowGraph g = models::buildTransformer(spec);

    arch::ChipConfig chip = arch::ChipConfig::sn40l();
    compiler::FusionOptions opt;
    opt.tensorParallel = 8;
    compiler::Kernel k = placedDecodeKernel(g, chip, opt);

    compiler::TrafficAnalyzer smooth(chip, 1.0);
    compiler::TrafficAnalyzer bursty(chip, 4.0);
    auto rs = smooth.analyze(g, k, 50e-6, 8);
    auto rb = bursty.analyze(g, k, 50e-6, 8);

    // With burst factor 1 throttling changes nothing; with 4x bursts
    // the unthrottled factor is strictly worse whenever any link is
    // meaningfully loaded.
    EXPECT_DOUBLE_EQ(rs.congestionFactor, rs.throttledFactor);
    EXPECT_GE(rb.congestionFactor, rb.throttledFactor);
    EXPECT_THROW(compiler::TrafficAnalyzer(chip, 0.5), sim::FatalError);
}

TEST(LaunchPhases, HardwarePrefetchHidesLoads)
{
    arch::ChipConfig cfg = arch::ChipConfig::sn40l();
    arch::Agcu agcu(cfg, "agcu");
    sim::Tick loads = cfg.programLoadOverhead + cfg.argumentLoadOverhead;

    // SW: host sync + loads, regardless of history.
    EXPECT_EQ(agcu.launchGap(arch::Orchestration::Software, 0),
              cfg.swLaunchOverhead + loads);
    EXPECT_EQ(agcu.launchGap(arch::Orchestration::Software,
                             sim::fromMs(10)),
              cfg.swLaunchOverhead + loads);

    // HW: a long-running previous kernel hides the loads entirely.
    EXPECT_EQ(agcu.launchGap(arch::Orchestration::Hardware,
                             sim::fromMs(10)),
              cfg.hwLaunchOverhead);
    // A very short previous kernel exposes the remainder.
    sim::Tick short_exec = loads / 3;
    EXPECT_EQ(agcu.launchGap(arch::Orchestration::Hardware, short_exec),
              cfg.hwLaunchOverhead + (loads - short_exec));
    // The first kernel (no history) pays the full load.
    EXPECT_EQ(agcu.launchGap(arch::Orchestration::Hardware, 0),
              cfg.hwLaunchOverhead + loads);
}

TEST(TraceWriter, RecordsAndEmitsChromeJson)
{
    runtime::TraceWriter trace;
    trace.record("kernels", "decoder.L0", sim::fromUs(5), sim::fromUs(50));
    trace.record("orchestration", "software", 0, sim::fromUs(5));
    // Past 1e6 us a 6-digit print would round away whole
    // milliseconds; the timestamp must round-trip exactly.
    const sim::Tick late = sim::fromSeconds(1234.5) + 891;
    trace.record("kernels", "late", late, sim::fromNs(250));
    EXPECT_EQ(trace.eventCount(), 3u);

    std::ostringstream os;
    trace.writeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("decoder.L0"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":50}"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":0.25}"), std::string::npos);

    std::size_t at = json.find("\"ts\":", json.find("\"name\":\"late\""));
    ASSERT_NE(at, std::string::npos);
    double ts = std::strtod(json.c_str() + at + 5, nullptr);
    EXPECT_GT(ts, 1e6);
    EXPECT_EQ(ts, sim::toUs(late));
}

TEST(TraceWriter, ExecutorIntegration)
{
    models::WorkloadSpec spec;
    spec.model = models::LlmConfig::llama2_7b();
    spec.phase = models::Phase::Decode;
    spec.seqLen = 256;
    spec.tensorParallel = 8;
    graph::DataflowGraph g = models::buildTransformer(spec);

    arch::NodeConfig cfg = arch::NodeConfig::sn40lNode(8);
    compiler::CompileOptions options;
    options.fusion.tensorParallel = 8;
    compiler::Program prog = compiler::compile(g, cfg.chip, options);

    sim::EventQueue eq;
    runtime::RduNode node(eq, cfg);
    runtime::Executor executor(node);
    runtime::TraceWriter trace;
    executor.setTrace(&trace);
    executor.run(prog, arch::Orchestration::Software);

    // One orchestration + one kernel event per launch.
    EXPECT_EQ(trace.eventCount(),
              2 * static_cast<std::size_t>(prog.totalLaunches));
}

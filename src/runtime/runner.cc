#include "runtime/runner.h"

#include "sim/log.h"

namespace sn40l::runtime {

const char *
runConfigName(RunConfig config)
{
    switch (config) {
      case RunConfig::Unfused: return "unfused";
      case RunConfig::FusedSO: return "fused+SO";
      case RunConfig::FusedHO: return "fused+HO";
    }
    sim::panic("runConfigName: unknown config");
}

RunOutcome
runWorkload(const graph::DataflowGraph &graph,
            const arch::NodeConfig &node_cfg, int sockets,
            RunConfig config, TraceWriter *trace)
{
    compiler::CompileOptions options;
    options.fusion.tensorParallel = sockets;
    options.fusion.mode = config == RunConfig::Unfused
        ? compiler::ExecMode::RduUnfused
        : compiler::ExecMode::RduFused;

    RunOutcome outcome;
    outcome.program = compiler::compile(graph, node_cfg.chip, options);

    arch::Orchestration orch = config == RunConfig::FusedHO
        ? arch::Orchestration::Hardware
        : arch::Orchestration::Software;

    sim::EventQueue eq;
    RduNode node(eq, node_cfg);
    Executor executor(node);
    executor.setTrace(trace);
    outcome.result = executor.run(outcome.program, orch);
    return outcome;
}

double
decodeSecondsPerToken(const graph::DataflowGraph &decode_graph,
                      const arch::NodeConfig &node_cfg, int sockets,
                      RunConfig config)
{
    return runWorkload(decode_graph, node_cfg, sockets, config).seconds();
}

} // namespace sn40l::runtime

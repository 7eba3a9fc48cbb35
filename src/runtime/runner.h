/**
 * @file
 * Convenience harness tying workloads, compiler, and executor
 * together: compile a graph in any of the three configurations the
 * paper benchmarks (Unfused, Fused+SO, Fused+HO) and run it on an
 * SN40L node. Used by the Fig 10/11 benches, Table IV, and tests.
 */

#ifndef SN40L_RUNTIME_RUNNER_H
#define SN40L_RUNTIME_RUNNER_H

#include <string>

#include "compiler/compiler.h"
#include "graph/dataflow_graph.h"
#include "runtime/executor.h"

namespace sn40l::runtime {

/** The three Fig 10 configurations. */
enum class RunConfig {
    Unfused,    ///< per-op kernels, software orchestrated
    FusedSO,    ///< streaming-dataflow fusion, software orchestrated
    FusedHO,    ///< fusion + hardware-orchestrated launches
};

const char *runConfigName(RunConfig config);

struct RunOutcome
{
    compiler::Program program;
    ExecutionResult result;

    double seconds() const { return result.seconds(); }
};

/**
 * Compile @p graph for @p sockets-way tensor parallelism and execute
 * it on a fresh node in the given configuration, recording the
 * timeline into @p trace when one is given.
 */
RunOutcome runWorkload(const graph::DataflowGraph &graph,
                       const arch::NodeConfig &node_cfg, int sockets,
                       RunConfig config, TraceWriter *trace = nullptr);

/** Per-token decode seconds for a spec, on @p sockets sockets. */
double decodeSecondsPerToken(const graph::DataflowGraph &decode_graph,
                             const arch::NodeConfig &node_cfg, int sockets,
                             RunConfig config = RunConfig::FusedHO);

} // namespace sn40l::runtime

#endif // SN40L_RUNTIME_RUNNER_H

/**
 * @file
 * GPU baseline executor: runs a dataflow graph under conventional
 * (restricted) fusion with kernel-per-group launches — the execution
 * model the paper compares against (Sections III-A and VI-C).
 */

#ifndef SN40L_BASELINE_GPU_EXECUTOR_H
#define SN40L_BASELINE_GPU_EXECUTOR_H

#include <cstdint>

#include "baseline/gpu_config.h"
#include "compiler/fusion.h"
#include "graph/dataflow_graph.h"

namespace sn40l::baseline {

struct GpuRunResult
{
    double seconds = 0.0;
    double execSeconds = 0.0;
    double launchSeconds = 0.0;
    double collectiveSeconds = 0.0;
    std::int64_t kernels = 0;
};

class GpuExecutor
{
  public:
    explicit GpuExecutor(DgxConfig cfg, bool flash_attention = true)
        : cfg_(std::move(cfg)), flashAttention_(flash_attention) {}

    const DgxConfig &config() const { return cfg_; }

    /**
     * Execute @p graph tensor-parallel across the node's GPUs.
     * Kernels serialize; each pays launch overhead; per-kernel time
     * is the max of compute (utilization-derated) and HBM traffic at
     * the GPU's sustained efficiency.
     */
    GpuRunResult run(const graph::DataflowGraph &graph) const;

    /** Seconds for one kernel's per-GPU work. */
    double kernelSeconds(const compiler::Kernel &kernel) const;

  private:
    DgxConfig cfg_;
    bool flashAttention_;
};

} // namespace sn40l::baseline

#endif // SN40L_BASELINE_GPU_EXECUTOR_H

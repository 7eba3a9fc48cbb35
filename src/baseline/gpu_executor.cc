#include "baseline/gpu_executor.h"

#include <algorithm>

#include "arch/agcu.h"

namespace sn40l::baseline {

double
GpuExecutor::kernelSeconds(const compiler::Kernel &kernel) const
{
    const GpuConfig &gpu = cfg_.gpu;
    int tp = cfg_.gpus;

    double work = (kernel.systolicFlops + kernel.simdFlops) / tp;
    double compute = 0.0;
    if (work > 0.0) {
        double util = std::clamp(work / gpu.saturationFlops,
                                 gpu.minUtilization, 1.0) *
                      gpu.peakUtilization;
        compute = work / (gpu.peakBf16Flops * util);
    }

    double bytes = kernel.offChipBytes() / tp;
    double mem = bytes / (gpu.hbmBandwidth * gpu.hbmEfficiency);

    double collective = 0.0;
    if (tp > 1 && kernel.allReduceBytes > 0.0) {
        double factor = arch::Agcu::allReduceTrafficFactor(tp);
        collective = kernel.allReduceBytes * factor / tp /
                     gpu.nvlinkBandwidth;
        collective += kernel.collectiveOps * gpu.collectiveLatencySeconds;
    }
    return std::max(compute, mem) + collective;
}

GpuRunResult
GpuExecutor::run(const graph::DataflowGraph &graph) const
{
    compiler::FusionOptions options;
    options.mode = compiler::ExecMode::GpuConventional;
    options.tensorParallel = cfg_.gpus;
    options.gpuFlashAttention = flashAttention_;

    // GPUs don't need the chip config for conventional partitioning,
    // but the interface is shared.
    arch::ChipConfig dummy = arch::ChipConfig::sn40l();
    std::vector<compiler::Kernel> kernels =
        compiler::partitionGraph(graph, dummy, options);

    GpuRunResult result;
    result.kernels = static_cast<std::int64_t>(kernels.size());
    for (const compiler::Kernel &k : kernels) {
        double s = kernelSeconds(k);
        result.execSeconds += s;
        if (k.collectiveOps > 0) {
            result.collectiveSeconds +=
                k.collectiveOps * cfg_.gpu.collectiveLatencySeconds;
        }
    }
    result.launchSeconds =
        static_cast<double>(result.kernels) *
        cfg_.gpu.launchOverheadSeconds;
    result.seconds = result.execSeconds + result.launchSeconds;
    return result;
}

} // namespace sn40l::baseline

#include "compiler/compiler.h"

#include <algorithm>
#include <utility>

#include "compiler/placer.h"
#include "sim/log.h"

namespace sn40l::compiler {

using graph::OpId;
using graph::TensorId;
using graph::TensorKind;

double
Program::execSeconds() const
{
    double total = 0.0;
    for (const KernelExec &ke : kernels)
        total += ke.cost.totalSeconds();
    return total;
}

double
Program::estimatedSeconds(double launch_overhead_seconds) const
{
    return execSeconds() +
           static_cast<double>(totalLaunches) * launch_overhead_seconds;
}

namespace {

/**
 * Build memory-plan symbols from the tensors that live off-chip at
 * kernel boundaries, with lifetimes in kernel-schedule steps.
 */
std::vector<mem::Symbol>
buildSymbols(const graph::DataflowGraph &graph,
             const std::vector<Kernel> &kernels,
             const CompileOptions &options, int tp,
             std::vector<TensorId> &symbol_tensors)
{
    int num_kernels = static_cast<int>(kernels.size());

    // Tensor -> kernel steps that touch it (first < 0: never touched)
    // and boundary traffic for spill prioritization. Tensor ids are
    // dense indices into the graph, so both tables are plain vectors.
    std::vector<std::pair<int, int>> live(graph.numTensors(), {-1, -1});
    std::vector<double> footprint(graph.numTensors(), 0.0);
    auto touch = [&](TensorId id, int step) {
        std::pair<int, int> &span = live[static_cast<std::size_t>(id)];
        if (span.first < 0)
            span = {step, step};
        else
            span.second = std::max(span.second, step);
    };

    for (int step = 0; step < num_kernels; ++step) {
        const Kernel &k = kernels[step];
        for (OpId id : k.ops) {
            const graph::Operator &op = graph.op(id);
            for (TensorId in : op.inputs) {
                touch(in, step);
                footprint[static_cast<std::size_t>(in)] +=
                    graph.effectiveReadBytes(id, in);
            }
            for (TensorId out : op.outputs) {
                touch(out, step);
                footprint[static_cast<std::size_t>(out)] +=
                    graph.effectiveWriteBytes(id, out);
            }
        }
    }

    std::vector<mem::Symbol> symbols;
    symbol_tensors.clear();
    for (const graph::Tensor &t : graph.tensors()) {
        const std::pair<int, int> &span =
            live[static_cast<std::size_t>(t.id)];
        if (span.first < 0)
            continue;

        // Activations entirely internal to one fused kernel never go
        // off-chip — they live in PMU stage buffers, not HBM.
        bool persistent_kind = t.kind == TensorKind::Weight ||
                               t.kind == TensorKind::Constant ||
                               t.kind == TensorKind::KvCache;
        if (!persistent_kind && t.kind == TensorKind::Activation &&
            span.first == span.second) {
            continue;
        }

        mem::Symbol sym;
        sym.name = t.name;
        sym.bytes = std::max<std::int64_t>(1, t.bytes() / tp);
        sym.readOnly = graph::isReadOnlyKind(t.kind);
        sym.transferFootprint =
            footprint[static_cast<std::size_t>(t.id)] / tp;

        bool persistent = t.kind == TensorKind::Weight ||
                          t.kind == TensorKind::Constant ||
                          t.kind == TensorKind::KvCache;
        if (persistent) {
            // Weights persist for the whole schedule and are re-read
            // every generated token: scale their bandwidth demand.
            sym.firstUse = 0;
            sym.lastUse = num_kernels - 1;
            sym.transferFootprint *= options.weightReuseFactor;
        } else {
            sym.firstUse = span.first;
            sym.lastUse = span.second;
        }
        symbols.push_back(std::move(sym));
        symbol_tensors.push_back(t.id);
    }
    return symbols;
}

} // namespace

Program
compile(const graph::DataflowGraph &graph, const arch::ChipConfig &chip,
        const CompileOptions &options)
{
    Program prog;
    prog.name = graph.name();
    prog.mode = options.fusion.mode;
    prog.tensorParallel = std::max(1, options.fusion.tensorParallel);
    prog.weightBytes = graph.weightBytes();
    prog.totalFlops = graph.totalFlops();

    std::vector<Kernel> kernels = partitionGraph(graph, chip,
                                                 options.fusion);
    if (prog.mode == ExecMode::RduFused) {
        for (Kernel &k : kernels)
            placeKernel(graph, chip, options.fusion, k);
    }

    // ---- Static memory plan (Section V-A) -------------------------
    std::vector<TensorId> symbol_tensors;
    std::vector<mem::Symbol> symbols =
        buildSymbols(graph, kernels, options, prog.tensorParallel,
                     symbol_tensors);

    mem::MemoryPlan plan = mem::planMemory(symbols, chip.hbmBytes,
                                           chip.ddrBytes);
    prog.hbmResidentBytes = static_cast<double>(plan.hbmPeakBytes);
    prog.ddrResidentBytes = static_cast<double>(plan.ddrBytes);
    prog.spilledSymbols = plan.spilledSymbols;

    // Global DDR traffic fraction applied to every kernel's boundary
    // bytes (a finer per-kernel split would need per-tensor routing
    // through the cost model; the aggregate is what Fig 1/V-A show).
    double total_footprint = 0.0;
    for (const mem::Symbol &sym : symbols)
        total_footprint += sym.transferFootprint;
    TrafficSplit split;
    if (total_footprint > 0.0) {
        split.ddrFraction = std::min(
            1.0, plan.spillTrafficBytes / total_footprint);
    }

    // ---- Cost and schedule ----------------------------------------
    prog.kernels.reserve(kernels.size());
    for (Kernel &k : kernels) {
        KernelExec ke;
        ke.cost = costKernel(chip, options.fusion, k, split);
        prog.totalLaunches += k.launches;
        ke.kernel = std::move(k);
        prog.kernels.push_back(std::move(ke));
    }
    return prog;
}

} // namespace sn40l::compiler

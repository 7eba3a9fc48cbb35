#include "mem/memory_system.h"

#include <algorithm>

#include "sim/log.h"

namespace sn40l::mem {

void
MemorySystemConfig::validate() const
{
    if (ddr.channels <= 0 || hbm.channels <= 0)
        sim::fatal("MemorySystemConfig: need at least one channel per tier");
    if (ddr.perChannelBandwidth <= 0.0 || hbm.perChannelBandwidth <= 0.0)
        sim::fatal("MemorySystemConfig: non-positive channel bandwidth");
    if (ddr.interleaveBytes <= 0 || hbm.interleaveBytes <= 0)
        sim::fatal("MemorySystemConfig: non-positive interleave");
    if (dmaEngines <= 0)
        sim::fatal("MemorySystemConfig: need at least one DMA engine");
    if (dmaSetupSeconds < 0.0)
        sim::fatal("MemorySystemConfig: negative DMA setup time");
}

MemorySystem::MemorySystem(sim::EventQueue &eq, std::string name,
                           const MemorySystemConfig &cfg)
    : eq_(eq), name_(std::move(name)), cfg_(cfg), stats_(name_),
      demandLoadsStat_(stats_.counter("demand_loads")),
      prefetchLoadsStat_(stats_.counter("prefetch_loads")),
      cancelledLoadsStat_(stats_.counter("cancelled_loads")),
      promotedLoadsStat_(stats_.counter("promoted_loads")),
      trafficBytesStat_(stats_.counter("traffic_bytes")),
      issuedLoadsStat_(stats_.counter("issued_loads")),
      loadBytesStat_(stats_.counter("load_bytes")),
      enginesBusyMaxStat_(stats_.counter("engines_busy_max")),
      completedLoadsStat_(stats_.counter("completed_loads"))
{
    cfg.validate();
    ddr_ = std::make_unique<InterleavedMemory>(
        eq, name_ + ".ddr", cfg.ddr.channels, cfg.ddr.perChannelBandwidth,
        cfg.ddr.interleaveBytes, cfg.ddr.efficiency);
    hbm_ = std::make_unique<InterleavedMemory>(
        eq, name_ + ".hbm", cfg.hbm.channels, cfg.hbm.perChannelBandwidth,
        cfg.hbm.interleaveBytes, cfg.hbm.efficiency);
    for (int i = 0; i < cfg.dmaEngines; ++i) {
        engines_.push_back(std::make_unique<DmaEngine>(
            eq, name_ + ".dma" + std::to_string(i)));
        if (cfg.dmaSetupSeconds > 0.0)
            engines_.back()->setSetupTicks(
                sim::fromSeconds(cfg.dmaSetupSeconds));
    }
}

TransferId
MemorySystem::load(std::int64_t ddr_addr, std::int64_t hbm_addr,
                   double bytes, TransferPriority priority,
                   Callback on_done)
{
    if (bytes < 0.0)
        sim::panic("MemorySystem " + name_ + ": negative load");

    Job job;
    job.id = nextId_++;
    job.srcAddr = ddr_addr;
    job.dstAddr = hbm_addr;
    job.bytes = bytes;
    job.priority = priority;
    job.onDone = std::move(on_done);

    if (priority == TransferPriority::Demand) {
        demandLoadsStat_ += 1.0;
        demandQueue_.push(std::move(job));
    } else {
        prefetchLoadsStat_ += 1.0;
        prefetchQueue_.push(std::move(job));
    }
    TransferId id = nextId_ - 1;
    pump();
    return id;
}

MemorySystem::Job
MemorySystem::JobQueue::pop()
{
    Job job = std::move(jobs_[head_++]);
    if (head_ == jobs_.size()) {
        jobs_.clear();
        head_ = 0;
    } else if (2 * head_ >= jobs_.size()) {
        jobs_.erase(jobs_.begin(),
                    jobs_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
    return job;
}

bool
MemorySystem::JobQueue::take(TransferId id, Job &out)
{
    for (auto it = jobs_.begin() + static_cast<std::ptrdiff_t>(head_);
         it != jobs_.end(); ++it) {
        if (it->id == id) {
            out = std::move(*it);
            jobs_.erase(it);
            if (empty()) {
                jobs_.clear();
                head_ = 0;
            }
            return true;
        }
    }
    return false;
}

bool
MemorySystem::cancel(TransferId id)
{
    Job job;
    if (!prefetchQueue_.take(id, job) && !demandQueue_.take(id, job))
        return false;
    cancelledLoadsStat_ += 1.0;
    return true;
}

bool
MemorySystem::promote(TransferId id)
{
    Job job;
    if (!prefetchQueue_.take(id, job))
        return false;
    job.priority = TransferPriority::Demand;
    demandQueue_.push(std::move(job));
    promotedLoadsStat_ += 1.0;
    return true;
}

sim::Tick
MemorySystem::traffic(double bytes, sim::Tick at)
{
    trafficBytesStat_ += bytes;
    // Contiguous stream over the whole working set: spreads evenly
    // across every HBM channel, queueing behind in-flight DMA writes.
    return hbm_->bookAccess(0, bytes, at);
}

void
MemorySystem::pump()
{
    for (int i = 0; i < static_cast<int>(engines_.size()); ++i) {
        if (engines_[i]->busy())
            continue;
        if (!demandQueue_.empty())
            issue(i, demandQueue_.pop());
        else if (!prefetchQueue_.empty())
            issue(i, prefetchQueue_.pop());
        else
            return;
    }
}

void
MemorySystem::issue(int engine_idx, Job job)
{
    issuedLoadsStat_ += 1.0;
    loadBytesStat_ += job.bytes;
    int busy = 0;
    for (const auto &e : engines_)
        busy += e->busy() ? 1 : 0;
    enginesBusyMaxStat_ =
        std::max(enginesBusyMaxStat_, static_cast<double>(busy + 1));

    if (issueHook_)
        issueHook_();
    std::uint32_t slot = inFlight_.park(std::move(job.onDone));
    engines_[engine_idx]->copy(*ddr_, job.srcAddr, *hbm_, job.dstAddr,
                               job.bytes,
                               [this, slot]() { completeLoad(slot); });
}

void
MemorySystem::completeLoad(std::uint32_t slot)
{
    Callback cb = inFlight_.take(slot);
    completedLoadsStat_ += 1.0;
    if (cb)
        cb();
    pump();
}

} // namespace sn40l::mem

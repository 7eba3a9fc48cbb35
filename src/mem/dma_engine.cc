#include "mem/dma_engine.h"

#include <algorithm>
#include <utility>

#include "mem/interleaved_memory.h"
#include "sim/log.h"

namespace sn40l::mem {

DmaEngine::DmaEngine(sim::EventQueue &eq, std::string name)
    : eq_(eq), name_(std::move(name)), doneLabel_(name_ + ".copy_done"),
      stats_(name_), copiesStat_(stats_.counter("copies")),
      bytesStat_(stats_.counter("bytes"))
{
}

void
DmaEngine::setRateFactor(double factor)
{
    if (factor < 1.0)
        sim::fatal(name_ + ": DMA rate factor must be >= 1 (got " +
                   std::to_string(factor) + ")");
    rateFactor_ = factor;
}

void
DmaEngine::setSetupTicks(sim::Tick ticks)
{
    if (ticks < 0)
        sim::fatal(name_ + ": negative DMA setup ticks");
    setupTicks_ = ticks;
}

void
DmaEngine::scheduleCompletion(sim::Tick done, Callback on_done)
{
    if (setupTicks_ > 0)
        done += setupTicks_;
    // Exact pass-through at the default factor: healthy runs must not
    // even round-trip ticks through a multiply.
    if (rateFactor_ != 1.0) {
        sim::Tick now = eq_.now();
        double span = static_cast<double>(done - now) * rateFactor_;
        done = now + static_cast<sim::Tick>(span);
    }
    ++inFlight_;
    std::uint32_t slot = parked_.park(std::move(on_done));
    eq_.schedule(done,
                 [this, slot]() {
                     --inFlight_;
                     Callback cb = parked_.take(slot);
                     if (cb)
                         cb();
                 },
                 doneLabel_.c_str());
}

void
DmaEngine::copy(BandwidthChannel &src, BandwidthChannel &dst, double bytes,
                Callback on_done)
{
    copiesStat_ += 1.0;
    bytesStat_ += bytes;
    sim::Tick done = std::max(src.book(bytes), dst.book(bytes));
    scheduleCompletion(done, std::move(on_done));
}

void
DmaEngine::copy(InterleavedMemory &src, std::int64_t src_addr,
                InterleavedMemory &dst, std::int64_t dst_addr, double bytes,
                Callback on_done)
{
    copiesStat_ += 1.0;
    bytesStat_ += bytes;
    sim::Tick done = std::max(src.bookAccess(src_addr, bytes),
                              dst.bookAccess(dst_addr, bytes));
    scheduleCompletion(done, std::move(on_done));
}

sim::Tick
DmaEngine::estimate(const BandwidthChannel &src, const BandwidthChannel &dst,
                    double bytes)
{
    return std::max(src.estimate(bytes), dst.estimate(bytes));
}

} // namespace sn40l::mem

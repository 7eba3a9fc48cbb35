#include "mem/bandwidth_channel.h"

#include "sim/log.h"

namespace sn40l::mem {

BandwidthChannel::BandwidthChannel(sim::EventQueue &eq, std::string name,
                                   double peak_bw, double efficiency,
                                   sim::Tick latency)
    : eq_(eq), name_(std::move(name)), doneLabel_(name_ + ".transfer_done"),
      peakBw_(peak_bw), efficiency_(efficiency), latency_(latency),
      stats_(name_), bytesStat_(stats_.counter("bytes")),
      transfersStat_(stats_.counter("transfers")),
      busyTicksStat_(stats_.counter("busy_ticks")),
      queueTicksStat_(stats_.counter("queue_ticks"))
{
    if (peak_bw <= 0.0)
        sim::fatal("BandwidthChannel " + name_ + ": non-positive bandwidth");
    if (efficiency <= 0.0 || efficiency > 1.0)
        sim::fatal("BandwidthChannel " + name_ + ": efficiency out of (0,1]");
}

sim::Tick
BandwidthChannel::estimate(double bytes) const
{
    return sim::transferTicks(bytes, effectiveBandwidth());
}

sim::Tick
BandwidthChannel::book(double bytes, sim::Tick at)
{
    if (bytes < 0.0)
        sim::panic("BandwidthChannel " + name_ + ": negative transfer");

    Window w = window(bytes, at);
    busyUntil_ = w.end;

    bytesStat_ += bytes;
    transfersStat_ += 1.0;
    busyTicksStat_ += static_cast<double>(w.end - w.start);
    queueTicksStat_ += static_cast<double>(w.start - at);
    return w.end + latency_;
}

void
BandwidthChannel::transfer(double bytes, Callback on_done)
{
    sim::Tick done = book(bytes);
    if (!on_done)
        return;
    eq_.schedule(done, std::move(on_done), doneLabel_.c_str());
}

void
BandwidthChannel::recordUse(double bytes, sim::Tick busy_time)
{
    bytesStat_ += bytes;
    busyTicksStat_ += static_cast<double>(busy_time);
}

} // namespace sn40l::mem

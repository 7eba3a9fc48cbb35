/**
 * @file
 * Shared-bandwidth channel: the basic off-chip memory / link resource
 * of the simulator. HBM stacks, DDR DIMM groups, PCIe links, D2D and
 * P2P links are all instances with different parameters.
 *
 * The model serializes transfers FIFO at the channel's effective
 * bandwidth and adds a fixed access latency per transfer. This is the
 * right fidelity for the paper's phenomena, which are dominated by
 * sustained-bandwidth behaviour rather than request interleaving.
 */

#ifndef SN40L_MEM_BANDWIDTH_CHANNEL_H
#define SN40L_MEM_BANDWIDTH_CHANNEL_H

#include <algorithm>
#include <string>

#include "sim/event_queue.h"
#include "sim/stats.h"
#include "sim/ticks.h"

namespace sn40l::mem {

class BandwidthChannel
{
  public:
    using Callback = sim::EventQueue::Callback;

    /**
     * @param peak_bw    peak bandwidth in bytes/second
     * @param efficiency fraction of peak achievable by streaming
     *                   traffic (e.g. 0.85 for the RDU's HBM)
     * @param latency    fixed per-transfer latency in ticks
     */
    BandwidthChannel(sim::EventQueue &eq, std::string name,
                     double peak_bw, double efficiency = 1.0,
                     sim::Tick latency = 0);

    const std::string &name() const { return name_; }
    double effectiveBandwidth() const { return peakBw_ * efficiency_; }

    /**
     * Enqueue a transfer of @p bytes; @p on_done fires when the last
     * byte has arrived. Transfers are serialized in issue order.
     */
    void transfer(double bytes, Callback on_done);

    /**
     * Book a transfer of @p bytes without scheduling any event: the
     * channel's busy window advances exactly as transfer() would, and
     * the tick at which the last byte lands (including the fixed
     * access latency) is returned. Because transfers serialize FIFO at
     * a fixed effective bandwidth, completion time is known in closed
     * form at issue — callers aggregating several channels (an
     * interleaved tier, a DMA join) book every leg and schedule one
     * completion event at the max instead of one event per channel.
     */
    sim::Tick book(double bytes) { return book(bytes, eq_.now()); }

    /**
     * book() as if issued at tick @p at: the transfer starts at the
     * later of @p at and the channel's busy window. A caller may book
     * lazily, after now, for an issue tick it has already passed, as
     * long as nothing it meant to queue behind was booked in between.
     */
    sim::Tick book(double bytes, sim::Tick at);

    /**
     * The tick book(@p bytes, @p at) would return, without booking.
     */
    sim::Tick endIfBooked(double bytes, sim::Tick at) const
    {
        return window(bytes, at).end + latency_;
    }

    /** Pure time estimate for @p bytes on an idle channel (no latency). */
    sim::Tick estimate(double bytes) const;

    /** Tick at which the channel next becomes idle. */
    sim::Tick busyUntil() const { return busyUntil_; }

    /**
     * Account for traffic whose timing is already captured elsewhere
     * (e.g. inside a kernel cost): bumps byte/busy statistics without
     * scheduling events.
     */
    void recordUse(double bytes, sim::Tick busy_time);

    sim::StatSet &stats() { return stats_; }
    const sim::StatSet &stats() const { return stats_; }

  private:
    /** Busy span a transfer issued at @p at would occupy (FIFO). */
    struct Window
    {
        sim::Tick start;
        sim::Tick end;
    };
    Window window(double bytes, sim::Tick at) const
    {
        sim::Tick start = std::max(at, busyUntil_);
        return {start, start + estimate(bytes)};
    }

    sim::EventQueue &eq_;
    std::string name_;
    std::string doneLabel_; ///< precomputed event name (no per-event alloc)
    double peakBw_;
    double efficiency_;
    sim::Tick latency_;
    sim::Tick busyUntil_ = 0;
    sim::StatSet stats_;
    // Hot counters resolved once; StatSet map lookups stay off the
    // per-transfer path.
    double &bytesStat_;
    double &transfersStat_;
    double &busyTicksStat_;
    double &queueTicksStat_;
};

} // namespace sn40l::mem

#endif // SN40L_MEM_BANDWIDTH_CHANNEL_H

/**
 * @file
 * Channel-interleaved memory: an HBM stack as N independent channels
 * with addresses interleaved at a fixed granularity. Captures the
 * channel-level parallelism the paper's PMU/HBM design leans on: a
 * contiguous stream spreads across all channels and reaches aggregate
 * bandwidth, while accesses that share a channel serialize on it.
 *
 * Each channel is a FIFO at one effective bandwidth, kept as flat
 * state (its busy tick and the bytes booked on it), so a contiguous
 * access is priced once per channel group rather than once per
 * channel.
 */

#ifndef SN40L_MEM_INTERLEAVED_MEMORY_H
#define SN40L_MEM_INTERLEAVED_MEMORY_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/stats.h"
#include "sim/ticks.h"

namespace sn40l::mem {

class InterleavedMemory
{
  public:
    /**
     * @param channels          number of independent channels
     * @param per_channel_bw    peak bytes/sec of one channel
     * @param interleave_bytes  contiguous bytes mapped to one channel
     *                          before rotating to the next
     * @param efficiency        fraction of peak a channel sustains, in
     *                          (0, 1] (as BandwidthChannel)
     * @param latency           fixed ticks added to every channel leg
     */
    InterleavedMemory(sim::EventQueue &eq, std::string name, int channels,
                      double per_channel_bw, std::int64_t interleave_bytes,
                      double efficiency = 1.0, sim::Tick latency = 0);

    int numChannels() const { return static_cast<int>(busyUntil_.size()); }

    /** Tick at which channel @p c next becomes idle. */
    sim::Tick busyUntil(int c) const { return busyUntil_.at(c); }
    /** Bytes booked on channel @p c so far. */
    double channelBytes(int c) const { return channelBytes_.at(c); }

    /**
     * Book a contiguous access on every channel without scheduling a
     * completion event; @return the tick at which the slowest channel
     * delivers its last byte (never before now). Channel completion
     * is closed-form at issue (FIFO serialization per channel), so an
     * N-channel access needs no join machinery — callers schedule one
     * event at the returned tick, or fold it into a larger join.
     */
    sim::Tick bookAccess(std::int64_t addr, double bytes)
    {
        return bookAccess(addr, bytes, eq_.now());
    }

    /**
     * bookAccess() as if issued at tick @p at: each channel's share
     * starts at the later of @p at and that channel's busy tick.
     */
    sim::Tick bookAccess(std::int64_t addr, double bytes, sim::Tick at);

    /**
     * The tick bookAccess(@p addr, @p bytes, @p at) would return,
     * without booking anything.
     */
    sim::Tick endIfBooked(std::int64_t addr, double bytes,
                          sim::Tick at) const;

    sim::StatSet &stats() { return stats_; }

  private:
    /**
     * Division of non-negative operands by a fixed count: a shift and a
     * mask when the count is a power of two (as the platforms' channel
     * counts and interleaves are), a hardware divide otherwise.
     */
    struct Divisor
    {
        explicit Divisor(std::int64_t d);
        std::int64_t quot(std::int64_t x) const
        {
            return shift >= 0 ? x >> shift : x / d;
        }
        std::int64_t rem(std::int64_t x) const
        {
            return shift >= 0 ? x & (d - 1) : x % d;
        }

        std::int64_t d;
        int shift = -1; ///< log2(d), or -1 when d is not a power of two
    };

    /**
     * Walk the channels a contiguous access touches and @return the
     * latest of @p at and every leg's end plus the latency. @p leg(c,
     * share, span) returns the end tick of channel @p c's share
     * taking @p span ticks; every channel of one group (same share)
     * gets the same span, priced once.
     */
    template <typename Leg>
    sim::Tick walk(std::int64_t addr, double bytes, sim::Tick at,
                   Leg leg) const;

    sim::EventQueue &eq_;
    std::string name_;
    Divisor line_;  ///< interleave bytes
    Divisor chans_; ///< channel count
    /** Effective bytes/sec of one channel: peak x efficiency. */
    double channelBw_;
    sim::Tick latency_;
    std::vector<sim::Tick> busyUntil_;
    std::vector<double> channelBytes_;

    sim::StatSet stats_;
    double &accessesStat_;
    double &bytesStat_;
};

} // namespace sn40l::mem

#endif // SN40L_MEM_INTERLEAVED_MEMORY_H

/**
 * @file
 * Channel-interleaved memory: an HBM stack as N independent channels
 * with addresses interleaved at a fixed granularity. Captures the
 * bank/channel-level parallelism the paper's PMU/HBM design leans on:
 * contiguous streams spread across all channels and reach aggregate
 * bandwidth, while channel-camping strides collapse to a single
 * channel's worth.
 */

#ifndef SN40L_MEM_INTERLEAVED_MEMORY_H
#define SN40L_MEM_INTERLEAVED_MEMORY_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/bandwidth_channel.h"

namespace sn40l::mem {

class InterleavedMemory
{
  public:
    using Callback = BandwidthChannel::Callback;

    /**
     * @param channels          number of independent channels
     * @param per_channel_bw    bytes/sec of one channel
     * @param interleave_bytes  contiguous bytes mapped to one channel
     *                          before rotating to the next
     */
    InterleavedMemory(sim::EventQueue &eq, std::string name, int channels,
                      double per_channel_bw, std::int64_t interleave_bytes,
                      double efficiency = 1.0, sim::Tick latency = 0);

    int numChannels() const { return static_cast<int>(channels_.size()); }
    std::int64_t interleaveBytes() const { return interleaveBytes_; }

    /** Channel owning byte address @p addr. */
    int channelOf(std::int64_t addr) const;

    BandwidthChannel &channel(int i) { return *channels_.at(i); }

    /**
     * Issue a contiguous access of @p bytes starting at @p addr; each
     * channel serves its interleaved share, and @p on_done fires when
     * the slowest channel finishes.
     */
    void access(std::int64_t addr, double bytes, Callback on_done);

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
     * bookAccess() as if issued at tick @p at: every channel share is
     * booked with BandwidthChannel::book(share, at).
     */
    sim::Tick bookAccess(std::int64_t addr, double bytes, sim::Tick at);

    /**
     * The tick bookAccess(@p addr, @p bytes, @p at) would return,
     * without booking anything.
     */
    sim::Tick endIfBooked(std::int64_t addr, double bytes,
                          sim::Tick at) const;

    /**
     * Issue a strided access: @p count elements of @p elem_bytes, with
     * byte stride @p stride from @p base. Strides that are multiples
     * of channels x interleave camp on one channel.
     */
    void accessStrided(std::int64_t base, std::int64_t stride,
                       std::int64_t count, std::int64_t elem_bytes,
                       Callback on_done);

    sim::StatSet &stats() { return stats_; }

  private:
    /** Split a contiguous access into per-channel shares in scratch_. */
    void splitContiguous(std::int64_t addr, double bytes) const;
    /**
     * The latest of @p at and @p leg(channel, share) over the channels
     * with a nonzero share in scratch_: the join of an access's legs.
     */
    template <typename Leg> sim::Tick joinShares(sim::Tick at, Leg leg) const;
    /** Book the per-channel byte shares in scratch_. @return done tick. */
    sim::Tick bookScratch(sim::Tick at);

    sim::EventQueue &eq_;
    std::string name_;
    std::string doneLabel_;
    std::int64_t interleaveBytes_;
    std::vector<std::unique_ptr<BandwidthChannel>> channels_;
    /** Per-channel split, reused per access and per query. */
    mutable std::vector<double> scratch_;

    sim::StatSet stats_;
    double &accessesStat_;
    double &bytesStat_;
};

} // namespace sn40l::mem

#endif // SN40L_MEM_INTERLEAVED_MEMORY_H

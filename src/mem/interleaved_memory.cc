#include "mem/interleaved_memory.h"

#include <algorithm>

#include "sim/log.h"

namespace sn40l::mem {

InterleavedMemory::Divisor::Divisor(std::int64_t d) : d(d)
{
    if (d <= 0 || (d & (d - 1)) != 0)
        return;
    shift = 0;
    while ((d >> shift) != 1)
        ++shift;
}

InterleavedMemory::InterleavedMemory(sim::EventQueue &eq, std::string name,
                                     int channels, double per_channel_bw,
                                     std::int64_t interleave_bytes,
                                     double efficiency, sim::Tick latency)
    : eq_(eq), name_(std::move(name)), line_(interleave_bytes),
      chans_(channels),
      channelBw_(per_channel_bw * efficiency), latency_(latency),
      stats_(name_), accessesStat_(stats_.counter("accesses")),
      bytesStat_(stats_.counter("bytes"))
{
    if (channels <= 0)
        sim::fatal("InterleavedMemory " + name_ + ": need channels");
    if (interleave_bytes <= 0)
        sim::fatal("InterleavedMemory " + name_ + ": bad interleave");
    if (per_channel_bw <= 0.0)
        sim::fatal("InterleavedMemory " + name_ + ": non-positive bandwidth");
    if (efficiency <= 0.0 || efficiency > 1.0)
        sim::fatal("InterleavedMemory " + name_ +
                   ": efficiency out of (0,1]");
    busyUntil_.assign(static_cast<std::size_t>(channels), 0);
    channelBytes_.assign(static_cast<std::size_t>(channels), 0.0);
}

template <typename Leg>
sim::Tick
InterleavedMemory::walk(std::int64_t addr, double bytes, sim::Tick at,
                        Leg leg) const
{
    if (bytes < 0.0)
        sim::panic("InterleavedMemory " + name_ + ": negative access");
    std::int64_t total = static_cast<std::int64_t>(bytes);
    if (total <= 0)
        return at;
    if (addr < 0)
        sim::panic("InterleavedMemory " + name_ + ": negative address");

    // Closed-form split of the contiguous range: its n_lines interleave
    // lines deal round-robin from the first line's channel, so every
    // channel gets n_lines / chans whole lines and the n_lines % chans
    // channels from first_chan on get one more. The first channel loses
    // the truncated head of its first line, the last line's channel the
    // truncated tail of its last. So the channels fall into at most
    // four groups of equal share — the head-trimmed first channel, the
    // untrimmed ones up to the last line's channel, that tail-trimmed
    // channel, and the rest — and each group is priced once. Bulk
    // streams (hundreds of GB of decode traffic per prompt) never walk
    // line by line, and every access pays this split.
    const std::int64_t line = line_.d;
    const std::int64_t chans = chans_.d;
    const std::int64_t last_addr = addr + total - 1;
    const std::int64_t first_line = line_.quot(addr);
    const std::int64_t last_line = line_.quot(last_addr);
    const std::int64_t n_lines = last_line - first_line + 1;
    const std::int64_t rounds = chans_.quot(n_lines);
    const std::int64_t extra = chans_.rem(n_lines);
    const std::int64_t first_chan = chans_.rem(first_line);
    // Ring offsets (from first_chan) 0..last_k hold the same whole
    // lines; the last line sits (n_lines - 1) % chans channels on.
    const std::int64_t last_k = (extra > 0 ? extra : chans) - 1;
    const double lead =
        static_cast<double>((extra > 0 ? rounds + 1 : rounds) * line);
    const double head = static_cast<double>(addr - first_line * line);
    const double tail =
        static_cast<double>(line - 1 - (last_addr - last_line * line));

    sim::Tick done = at;
    // Ring offsets [from, to), every one with @p share bytes.
    auto group = [&](std::int64_t from, std::int64_t to, double share) {
        if (from >= to || share <= 0.0)
            return;
        const sim::Tick span = sim::transferTicks(share, channelBw_);
        std::int64_t c = first_chan + from;
        if (c >= chans)
            c -= chans;
        for (std::int64_t k = from; k < to; ++k) {
            done = std::max(
                done, leg(static_cast<std::size_t>(c), share, span) +
                          latency_);
            if (++c == chans)
                c = 0;
        }
    };
    if (last_k == 0) {
        group(0, 1, lead - head - tail);
    } else {
        group(0, 1, lead - head);
        group(1, last_k, lead);
        group(last_k, last_k + 1, lead - tail);
    }
    if (extra > 0)
        group(extra, chans, static_cast<double>(rounds * line));
    return done;
}

sim::Tick
InterleavedMemory::bookAccess(std::int64_t addr, double bytes, sim::Tick at)
{
    sim::Tick done = walk(
        addr, bytes, at, [this, at](std::size_t c, double share,
                                    sim::Tick span) {
            sim::Tick end = std::max(at, busyUntil_[c]) + span;
            busyUntil_[c] = end;
            channelBytes_[c] += share;
            return end;
        });
    accessesStat_ += 1.0;
    bytesStat_ += bytes;
    return done;
}

sim::Tick
InterleavedMemory::endIfBooked(std::int64_t addr, double bytes,
                               sim::Tick at) const
{
    return walk(addr, bytes, at,
                [this, at](std::size_t c, double, sim::Tick span) {
                    return std::max(at, busyUntil_[c]) + span;
                });
}

} // namespace sn40l::mem

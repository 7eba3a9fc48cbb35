#include "mem/interleaved_memory.h"

#include <algorithm>

#include "sim/log.h"

namespace sn40l::mem {

InterleavedMemory::InterleavedMemory(sim::EventQueue &eq, std::string name,
                                     int channels, double per_channel_bw,
                                     std::int64_t interleave_bytes,
                                     double efficiency, sim::Tick latency)
    : eq_(eq), name_(std::move(name)), doneLabel_(name_ + ".access_done"),
      interleaveBytes_(interleave_bytes), stats_(name_),
      accessesStat_(stats_.counter("accesses")),
      bytesStat_(stats_.counter("bytes"))
{
    if (channels <= 0)
        sim::fatal("InterleavedMemory " + name_ + ": need channels");
    if (interleave_bytes <= 0)
        sim::fatal("InterleavedMemory " + name_ + ": bad interleave");
    for (int i = 0; i < channels; ++i) {
        channels_.push_back(std::make_unique<BandwidthChannel>(
            eq, name_ + ".ch" + std::to_string(i), per_channel_bw,
            efficiency, latency));
    }
    scratch_.assign(channels_.size(), 0.0);
}

double
InterleavedMemory::aggregateBandwidth() const
{
    return static_cast<double>(channels_.size()) *
           channels_.front()->effectiveBandwidth();
}

int
InterleavedMemory::channelOf(std::int64_t addr) const
{
    if (addr < 0)
        sim::panic("InterleavedMemory " + name_ + ": negative address");
    return static_cast<int>((addr / interleaveBytes_) %
                            static_cast<std::int64_t>(channels_.size()));
}

template <typename Leg>
sim::Tick
InterleavedMemory::joinShares(sim::Tick at, Leg leg) const
{
    sim::Tick done = at;
    for (std::size_t i = 0; i < scratch_.size(); ++i) {
        if (scratch_[i] <= 0.0)
            continue;
        done = std::max(done, leg(*channels_[i], scratch_[i]));
    }
    return done;
}

sim::Tick
InterleavedMemory::bookScratch(sim::Tick at)
{
    return joinShares(at, [at](BandwidthChannel &ch, double share) {
        return ch.book(share, at);
    });
}

void
InterleavedMemory::splitContiguous(std::int64_t addr, double bytes) const
{
    if (bytes < 0.0)
        sim::panic("InterleavedMemory " + name_ + ": negative access");
    std::int64_t total = static_cast<std::int64_t>(bytes);
    if (total <= 0) {
        std::fill(scratch_.begin(), scratch_.end(), 0.0);
        return;
    }
    if (addr < 0)
        sim::panic("InterleavedMemory " + name_ + ": negative address");

    // Closed-form split of the contiguous range: its n_lines interleave
    // lines deal round-robin from the first line's channel, so every
    // channel gets n_lines / chans whole lines and the n_lines % chans
    // channels from first_chan on get one more. Then trim the
    // truncated leading and trailing lines. Four divides and one pass
    // over the channels regardless of size — bulk streams (hundreds of
    // GB of decode traffic per prompt) must not walk line by line, and
    // every access pays this split.
    const std::int64_t line = interleaveBytes_;
    const std::int64_t chans = static_cast<std::int64_t>(channels_.size());
    const std::int64_t last_addr = addr + total - 1;
    const std::int64_t first_line = addr / line;
    const std::int64_t last_line = last_addr / line;
    const std::int64_t n_lines = last_line - first_line + 1;
    const std::int64_t rounds = n_lines / chans;
    const std::int64_t extra = n_lines % chans;
    const std::int64_t first_chan = first_line % chans;
    std::int64_t c = first_chan;
    for (std::int64_t k = 0; k < chans; ++k) {
        scratch_[static_cast<std::size_t>(c)] =
            static_cast<double>((rounds + (k < extra ? 1 : 0)) * line);
        if (++c == chans)
            c = 0;
    }
    // The last line sits (n_lines - 1) % chans channels past the first.
    std::int64_t last_chan = first_chan + (extra > 0 ? extra : chans) - 1;
    if (last_chan >= chans)
        last_chan -= chans;
    scratch_[static_cast<std::size_t>(first_chan)] -=
        static_cast<double>(addr - first_line * line);
    scratch_[static_cast<std::size_t>(last_chan)] -=
        static_cast<double>(line - 1 - (last_addr - last_line * line));
}

sim::Tick
InterleavedMemory::bookAccess(std::int64_t addr, double bytes, sim::Tick at)
{
    splitContiguous(addr, bytes);
    accessesStat_ += 1.0;
    bytesStat_ += bytes;
    return bookScratch(at);
}

sim::Tick
InterleavedMemory::endIfBooked(std::int64_t addr, double bytes,
                               sim::Tick at) const
{
    splitContiguous(addr, bytes);
    return joinShares(at, [at](const BandwidthChannel &ch, double share) {
        return ch.endIfBooked(share, at);
    });
}

void
InterleavedMemory::access(std::int64_t addr, double bytes, Callback on_done)
{
    sim::Tick done = bookAccess(addr, bytes);
    if (on_done)
        eq_.schedule(done, std::move(on_done), doneLabel_.c_str());
}

void
InterleavedMemory::accessStrided(std::int64_t base, std::int64_t stride,
                                 std::int64_t count,
                                 std::int64_t elem_bytes, Callback on_done)
{
    if (count < 0)
        sim::fatal("InterleavedMemory " + name_ +
                   ": negative strided element count");
    if (elem_bytes <= 0)
        sim::fatal("InterleavedMemory " + name_ +
                   ": non-positive strided element size");
    if (count == 0) {
        // An empty access is a degenerate but legal request: complete
        // asynchronously like any other zero-byte access.
        if (on_done)
            eq_.scheduleIn(0, std::move(on_done), doneLabel_.c_str());
        return;
    }
    // Negative strides walk the address space downward; they are fine
    // as long as no element lands below address zero.
    std::int64_t lowest = stride < 0 ? base + (count - 1) * stride : base;
    if (lowest < 0)
        sim::fatal("InterleavedMemory " + name_ +
                   ": strided access reaches negative addresses");
    accessesStat_ += 1.0;
    bytesStat_ += static_cast<double>(count * elem_bytes);

    std::fill(scratch_.begin(), scratch_.end(), 0.0);
    for (std::int64_t i = 0; i < count; ++i) {
        std::int64_t addr = base + i * stride;
        scratch_[channelOf(addr)] += static_cast<double>(elem_bytes);
    }
    sim::Tick done = bookScratch(eq_.now());
    if (on_done)
        eq_.schedule(done, std::move(on_done), doneLabel_.c_str());
}

} // namespace sn40l::mem

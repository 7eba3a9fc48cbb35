/**
 * @file
 * DMA engine moving data between two bandwidth channels (e.g. DDR to
 * HBM for expert activation — Section V-B, or host DRAM to GPU HBM
 * over PCIe for the DGX baseline). A copy occupies both endpoints and
 * completes when the slower side finishes.
 *
 * Engines also copy between whole InterleavedMemory tiers, spreading
 * each endpoint's share across the tier's channels; MemorySystem pools
 * several engines and schedules expert-streaming jobs onto them.
 *
 * Copies book both endpoints in closed form and schedule a single
 * completion event at the slower endpoint's finish tick, so an
 * N-channel tier-to-tier copy costs one event instead of a per-channel
 * join fan-in.
 */

#ifndef SN40L_MEM_DMA_ENGINE_H
#define SN40L_MEM_DMA_ENGINE_H

#include <cstdint>
#include <string>

#include "mem/bandwidth_channel.h"

namespace sn40l::mem {

class InterleavedMemory;

class DmaEngine
{
  public:
    using Callback = BandwidthChannel::Callback;

    DmaEngine(sim::EventQueue &eq, std::string name);

    /**
     * Copy @p bytes from @p src to @p dst. @p on_done fires when both
     * channels have drained the copy.
     */
    void copy(BandwidthChannel &src, BandwidthChannel &dst, double bytes,
              Callback on_done);

    /**
     * Copy @p bytes between interleaved tiers: read @p src starting at
     * @p src_addr, write @p dst starting at @p dst_addr. Each tier
     * spreads its share over its channels; @p on_done fires when the
     * slower tier finishes.
     */
    void copy(InterleavedMemory &src, std::int64_t src_addr,
              InterleavedMemory &dst, std::int64_t dst_addr, double bytes,
              Callback on_done);

    /** Copies issued through this engine that have not completed. */
    int inFlight() const { return inFlight_; }
    bool busy() const { return inFlight_ > 0; }

    /**
     * Fault-injection hook: stretch the completion time of every copy
     * issued while the factor is set — a copy that would take T ticks
     * takes factor * T. Exactly 1.0 (the default) leaves completion
     * arithmetic untouched, so healthy runs stay bit-identical; the
     * chaos layer uses large factors to model a stalled engine.
     * Factors below 1 are a FatalError (the engine cannot beat its
     * channels). Already-scheduled completions are not moved.
     */
    void setRateFactor(double factor);
    double rateFactor() const { return rateFactor_; }

    /**
     * Fixed per-copy setup cost (descriptor programming), added to
     * every completion while set. Negligible for multi-GB expert
     * copies but dominant for adapter-sized transfers — the PEFT
     * zoo's many-tiny-transfer regime. The engine counts as busy
     * through the setup span, so the pool cannot double-issue onto
     * it. 0 (the default) leaves completion arithmetic untouched.
     * Negative values are a FatalError.
     */
    void setSetupTicks(sim::Tick ticks);
    sim::Tick setupTicks() const { return setupTicks_; }

    /** Idle-channel estimate: bytes at the slower endpoint's rate. */
    static sim::Tick estimate(const BandwidthChannel &src,
                              const BandwidthChannel &dst, double bytes);

    sim::StatSet &stats() { return stats_; }

  private:
    void scheduleCompletion(sim::Tick done, Callback on_done);

    sim::EventQueue &eq_;
    std::string name_;
    std::string doneLabel_;
    int inFlight_ = 0;
    double rateFactor_ = 1.0;
    sim::Tick setupTicks_ = 0;
    /** Completion callbacks of copies in flight. */
    sim::CallbackSlots parked_;
    sim::StatSet stats_;
    double &copiesStat_;
    double &bytesStat_;
};

} // namespace sn40l::mem

#endif // SN40L_MEM_DMA_ENGINE_H

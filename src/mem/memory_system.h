/**
 * @file
 * Three-tier memory facade (Section III-B / Fig 9): the DDR backing
 * tier and the HBM working tier of one platform as InterleavedMemory
 * instances, plus a pool of DMA engines that stream expert segments
 * DDR -> HBM. Expert loads and execution-side HBM traffic share the
 * same bandwidth channels, so decode weight streaming and expert
 * switching genuinely contend instead of being charged as independent
 * closed-form latency terms.
 *
 * Loads are queued jobs with two priorities: Demand (a batch is
 * blocked on the expert) and Prefetch (speculative, router-driven).
 * A free engine always drains the demand queue first. Queued jobs can
 * be cancelled (speculation invalidated by eviction pressure) or
 * promoted to demand priority (a speculated expert turned out to be
 * needed now); once a job is issued on an engine it runs to
 * completion.
 */

#ifndef SN40L_MEM_MEMORY_SYSTEM_H
#define SN40L_MEM_MEMORY_SYSTEM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/dma_engine.h"
#include "mem/interleaved_memory.h"

namespace sn40l::mem {

enum class TransferPriority { Demand, Prefetch };

/** Opaque id for a load in flight or queued; 0 is never assigned. */
using TransferId = std::uint64_t;
constexpr TransferId kInvalidTransfer = 0;

struct TierConfig
{
    int channels = 1;
    double perChannelBandwidth = 0.0; ///< bytes/sec peak per channel
    double efficiency = 1.0;
    std::int64_t interleaveBytes = 1 << 20;
};

struct MemorySystemConfig
{
    TierConfig ddr; ///< backing tier (node DDR, or host DRAM over PCIe)
    TierConfig hbm; ///< working tier the experts execute from
    int dmaEngines = 2;

    /**
     * Fixed per-transfer setup cost (descriptor programming) applied
     * by every DMA engine in the pool. 0 (default) keeps completion
     * arithmetic bit-identical to the setup-free engine; the PEFT
     * expert zoo sets it so thousands of adapter-sized transfers pay
     * a real per-transfer overhead (see DmaEngine::setSetupTicks).
     */
    double dmaSetupSeconds = 0.0;

    /** Throws FatalError on non-positive channel/engine counts. */
    void validate() const;
};

class MemorySystem
{
  public:
    using Callback = DmaEngine::Callback;

    MemorySystem(sim::EventQueue &eq, std::string name,
                 const MemorySystemConfig &cfg);

    /**
     * Queue an async DDR->HBM copy of @p bytes (reading the backing
     * tier at @p ddr_addr, writing the working tier at @p hbm_addr)
     * and return its id. @p on_done fires when the last byte lands.
     */
    TransferId load(std::int64_t ddr_addr, std::int64_t hbm_addr,
                    double bytes, TransferPriority priority,
                    Callback on_done);

    /**
     * Cancel a queued load. @return true iff the job had not been
     * issued on an engine yet (its callback will never fire); false if
     * it is already streaming (it will complete) or unknown.
     */
    bool cancel(TransferId id);

    /**
     * Move a queued prefetch to the back of the demand queue.
     * @return true iff the job was found queued at prefetch priority.
     */
    bool promote(TransferId id);

    /**
     * Book execution-side traffic on the working tier (decode weight
     * streaming, KV reads) as if issued at tick @p at: it occupies the
     * same HBM channels the DMA engines write through. @return the
     * tick its last byte lands (never before @p at). Booking is
     * closed-form, so no event is scheduled: the caller folds the tick
     * into its own completion. @p at may lie in the past when the
     * caller books lazily; the issue hook below lets it book before
     * any DMA that would have queued behind the traffic.
     */
    sim::Tick traffic(double bytes, sim::Tick at);

    /** The tick traffic(@p bytes, @p at) would return, booking nothing. */
    sim::Tick trafficEnd(double bytes, sim::Tick at) const
    {
        return hbm_->endIfBooked(0, bytes, at);
    }

    /**
     * Invoked just before a DMA load books the tiers' channels, so an
     * owner that books traffic lazily can first book what it has
     * already issued.
     */
    void setIssueHook(Callback hook) { issueHook_ = std::move(hook); }

    InterleavedMemory &ddr() { return *ddr_; }
    InterleavedMemory &hbm() { return *hbm_; }
    DmaEngine &engine(int i) { return *engines_.at(i); }

    /**
     * Fault-injection hook: apply a completion-stretch factor to every
     * DMA engine in the pool (see DmaEngine::setRateFactor). 1.0
     * restores healthy behaviour.
     */
    void setDmaRateFactor(double factor)
    {
        for (auto &e : engines_)
            e->setRateFactor(factor);
    }

    int dmaEngineCount() const { return static_cast<int>(engines_.size()); }
    int queuedLoads() const
    {
        return static_cast<int>(demandQueue_.size() + prefetchQueue_.size());
    }
    int loadsInFlight() const { return static_cast<int>(inFlight_.parked()); }

    /** Idle-system estimate of one load: slower tier paces the copy. */
    sim::Tick estimateLoad(double bytes) const;

    sim::StatSet &stats() { return stats_; }
    const sim::StatSet &stats() const { return stats_; }

  private:
    struct Job
    {
        TransferId id = kInvalidTransfer;
        std::int64_t srcAddr = 0;
        std::int64_t dstAddr = 0;
        double bytes = 0.0;
        TransferPriority priority = TransferPriority::Demand;
        Callback onDone;
    };

    /**
     * FIFO of queued jobs: a vector consumed from a head index and
     * compacted once half of it is consumed, so steady-state pushes
     * and pops reuse its capacity.
     */
    class JobQueue
    {
      public:
        bool empty() const { return head_ == jobs_.size(); }
        std::size_t size() const { return jobs_.size() - head_; }
        void push(Job job) { jobs_.push_back(std::move(job)); }
        Job pop();
        /** Move the job @p id into @p out and drop it from the queue. */
        bool take(TransferId id, Job &out);

      private:
        std::vector<Job> jobs_;
        std::size_t head_ = 0;
    };

    /** Issue queued jobs onto free engines, demand queue first. */
    void pump();
    void issue(int engine_idx, Job job);
    void completeLoad(std::uint32_t slot);

    sim::EventQueue &eq_;
    std::string name_;
    std::unique_ptr<InterleavedMemory> ddr_;
    std::unique_ptr<InterleavedMemory> hbm_;
    std::vector<std::unique_ptr<DmaEngine>> engines_;

    TransferId nextId_ = 1;
    JobQueue demandQueue_;
    JobQueue prefetchQueue_;
    /** Completion callbacks of loads streaming on an engine. */
    sim::CallbackSlots inFlight_;
    Callback issueHook_;

    sim::StatSet stats_;
    // Counters resolved once (StatSet::counter): loads and traffic run
    // per request.
    double &demandLoadsStat_;
    double &prefetchLoadsStat_;
    double &cancelledLoadsStat_;
    double &promotedLoadsStat_;
    double &trafficBytesStat_;
    double &issuedLoadsStat_;
    double &loadBytesStat_;
    double &enginesBusyMaxStat_;
    double &completedLoadsStat_;
};

} // namespace sn40l::mem

#endif // SN40L_MEM_MEMORY_SYSTEM_H

/**
 * @file
 * Machine models: an SN40L socket (HBM + DDR channels + launch
 * sequencer) and an SN40L node (eight sockets and their P2P links),
 * on which the executor runs a compiled program. All timing flows
 * through the shared event queue. Expert copies between the tiers
 * are the serving layer's mem::MemorySystem.
 */

#ifndef SN40L_RUNTIME_MACHINE_H
#define SN40L_RUNTIME_MACHINE_H

#include <memory>
#include <string>
#include <vector>

#include "arch/agcu.h"
#include "arch/chip_config.h"
#include "mem/bandwidth_channel.h"
#include "sim/event_queue.h"

namespace sn40l::runtime {

class RduSocket
{
  public:
    RduSocket(sim::EventQueue &eq, const arch::ChipConfig &cfg,
              std::string name);

    const std::string &name() const { return name_; }

    mem::BandwidthChannel &hbm() { return hbm_; }
    mem::BandwidthChannel &ddr() { return ddr_; }
    arch::Agcu &agcu() { return agcu_; }

  private:
    std::string name_;
    mem::BandwidthChannel hbm_;
    mem::BandwidthChannel ddr_;
    arch::Agcu agcu_;
};

class RduNode
{
  public:
    RduNode(sim::EventQueue &eq, const arch::NodeConfig &cfg);

    sim::EventQueue &eventQueue() { return eq_; }
    int numSockets() const { return static_cast<int>(sockets_.size()); }
    RduSocket &socket(int i) { return *sockets_.at(i); }

    mem::BandwidthChannel &p2p() { return p2p_; }

  private:
    sim::EventQueue &eq_;
    /** Owned copy: each socket's Agcu keeps a reference to its chip. */
    arch::NodeConfig cfg_;
    std::vector<std::unique_ptr<RduSocket>> sockets_;
    mem::BandwidthChannel p2p_;
};

} // namespace sn40l::runtime

#endif // SN40L_RUNTIME_MACHINE_H

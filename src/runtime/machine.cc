#include "runtime/machine.h"

namespace sn40l::runtime {

RduSocket::RduSocket(sim::EventQueue &eq, const arch::ChipConfig &cfg,
                     std::string name)
    : name_(std::move(name)),
      hbm_(eq, name_ + ".hbm", cfg.hbmBandwidth, cfg.hbmEfficiency,
           sim::fromNs(300)),
      ddr_(eq, name_ + ".ddr", cfg.ddrBandwidth, cfg.ddrEfficiency,
           sim::fromNs(100)),
      agcu_(cfg, name_ + ".agcu")
{
}

RduNode::RduNode(sim::EventQueue &eq, const arch::NodeConfig &cfg)
    : eq_(eq), cfg_(cfg),
      p2p_(eq, cfg.name + ".p2p", cfg.chip.p2pBandwidth * cfg.sockets, 1.0,
           sim::fromUs(1))
{
    for (int i = 0; i < cfg_.sockets; ++i) {
        sockets_.push_back(std::make_unique<RduSocket>(
            eq, cfg_.chip, cfg_.name + ".rdu" + std::to_string(i)));
    }
}

} // namespace sn40l::runtime

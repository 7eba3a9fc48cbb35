#include "coe/fabric.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "sim/log.h"

namespace sn40l::coe {

void
validateFabricConfig(const FabricConfig &cfg)
{
    if (!cfg.enabled)
        return;
    auto finite = [](double v, const char *field) {
        if (!std::isfinite(v))
            sim::fatal(std::string("fabric: ") + field + " must be finite");
    };
    finite(cfg.linkGbps, "linkGbps (--link-gbps)");
    finite(cfg.linkLatencyUs, "linkLatencyUs (--link-latency-us)");
    finite(cfg.flitBytes, "flitBytes");
    finite(cfg.requestOverheadBytes, "requestOverheadBytes");
    finite(cfg.requestPayloadBytes, "requestPayloadBytes");
    if (cfg.linkGbps <= 0.0)
        sim::fatal("fabric: linkGbps (--link-gbps) must be positive");
    if (cfg.linkLatencyUs < 0.0)
        sim::fatal("fabric: linkLatencyUs (--link-latency-us) must be "
                   "non-negative");
    if (!(cfg.linkLatencyUs * static_cast<double>(sim::kTicksPerUs) <
          static_cast<double>(sim::kMaxTick)))
        sim::fatal("fabric: linkLatencyUs (--link-latency-us) too large: "
                   "its tick count does not fit in a Tick");
    if (cfg.linkBufferFlits < 1)
        sim::fatal("fabric: linkBufferFlits (--link-buffer-flits) must be "
                   "at least 1");
    if (cfg.flitBytes <= 0.0)
        sim::fatal("fabric: flitBytes must be positive");
    if (cfg.maxFlitsPerMessage < 1)
        sim::fatal("fabric: maxFlitsPerMessage must be at least 1");
    if (cfg.requestOverheadBytes < 0.0)
        sim::fatal("fabric: requestOverheadBytes must be non-negative");
    if (cfg.requestPayloadBytes < 0.0)
        sim::fatal("fabric: requestPayloadBytes must be non-negative");
    // Whole-message serialization: a dispatched request, or a full
    // message of maxFlitsPerMessage flits, must span a Tick-sized time.
    double bytes = std::max(cfg.requestPayloadBytes + cfg.requestOverheadBytes,
                            cfg.flitBytes * cfg.maxFlitsPerMessage);
    double ticks = bytes / (cfg.linkGbps * 1e9 / 8.0) *
        static_cast<double>(sim::kTicksPerSec);
    if (!(ticks < sim::kMaxSerializationTicks)) {
        char msg[192];
        std::snprintf(msg, sizeof msg,
                      "fabric: linkGbps (--link-gbps) too low: a %g-byte "
                      "message would take %g s to serialize, past the "
                      "simulator's Tick range",
                      bytes, ticks / sim::kTicksPerSec);
        sim::fatal(msg);
    }
}

sim::NetworkConfig
toNetworkConfig(const FabricConfig &cfg, int nodes)
{
    sim::NetworkConfig net;
    net.topology = cfg.topology;
    net.endpoints = nodes + 1; // + the dispatch hub
    net.linkBytesPerSec = cfg.linkGbps * 1e9 / 8.0;
    net.linkLatency = sim::fromUs(cfg.linkLatencyUs);
    net.bufferFlits = cfg.linkBufferFlits;
    net.flitBytes = cfg.flitBytes;
    net.maxFlitsPerMessage = cfg.maxFlitsPerMessage;
    return net;
}

ClusterFabric::ClusterFabric(sim::EventQueue &eq,
                             const FabricConfig &cfg, int nodes)
    : cfg_(cfg), nodes_(nodes), net_(eq, toNetworkConfig(cfg, nodes))
{
}

void
ClusterFabric::sendRequest(int node, double bytes,
                           Callback on_delivered)
{
    net_.send(nodes_, node, bytes + cfg_.requestOverheadBytes,
              std::move(on_delivered));
}

void
ClusterFabric::sendTransfer(int from, int to, double bytes,
                            Callback on_delivered)
{
    net_.send(from, to, bytes, std::move(on_delivered));
}

double
ClusterFabric::hubCongestion(int node)
{
    return net_.pathCongestion(nodes_, node);
}

void
ClusterFabric::degradeNode(int node, double factor)
{
    net_.setEndpointLinkFactor(node, factor);
}

} // namespace sn40l::coe

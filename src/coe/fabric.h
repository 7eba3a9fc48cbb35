/**
 * @file
 * Cluster-facing wrapper around sim::Network.
 *
 * The fabric presents the cluster's view of the interconnect: node i
 * is endpoint i, and the dispatch hub is one extra endpoint (id ==
 * node count). With `enabled == false` (the default) the cluster
 * never constructs a fabric and all traffic moves instantaneously —
 * byte-identical to the pre-network behavior; the knobs below are
 * inert until the topology is switched on.
 *
 * Three traffic classes ride the fabric when it is enabled:
 *
 *   - request dispatch and retries (hub -> node), sized by the
 *     modeled prompt-handoff payload plus a fixed per-message
 *     overhead (NOT the request's trafficBytes, which counts the
 *     node-local HBM working-set streaming, gigabytes that never
 *     cross the wire),
 *   - drain/rejoin re-placement transfers (node -> node),
 *   - expert migration payloads (node -> node), whose completion then
 *     pays the target node's DDR-write time before the placement
 *     flips.
 */

#ifndef SN40L_COE_FABRIC_H
#define SN40L_COE_FABRIC_H

#include <cstdint>
#include <memory>

#include "sim/network.h"

namespace sn40l::coe {

struct FabricConfig
{
    /** Off by default: zero-network runs bypass the fabric wholly. */
    bool enabled = false;

    sim::Topology topology = sim::Topology::Star;

    /** Per-link bandwidth in gigabits per second
     *  (bytes/s = linkGbps * 1e9 / 8). */
    double linkGbps = 200.0;

    /** Per-hop propagation latency (also the credit-return delay). */
    double linkLatencyUs = 2.0;

    /** Downstream input-buffer depth per link, in flits. */
    int linkBufferFlits = 64;

    /** Serialization quantum and the per-message flit cap. */
    double flitBytes = 4096.0;
    int maxFlitsPerMessage = 256;

    /** Header/metadata bytes added to every request dispatch. */
    double requestOverheadBytes = 2048.0;

    /**
     * Wire payload shipped with every dispatched request: the
     * tokenized prompt plus the hub-side router state handed to the
     * node (the expert weights themselves never move at dispatch —
     * each node streams its own copies). Default 1 MB: a long prompt's
     * token embeddings at serving precision.
     */
    double requestPayloadBytes = 1.0e6;
};

/** FatalError when enabled with non-positive knobs. */
void validateFabricConfig(const FabricConfig &cfg);

class ClusterFabric
{
  public:
    using Callback = sim::Network::Callback;

    /** Endpoints are nodes 0..nodes-1 plus the hub at id nodes. */
    ClusterFabric(sim::EventQueue &eq, const FabricConfig &cfg,
                  int nodes);

    /**
     * Hub -> node message of @p bytes plus the per-message overhead.
     * With bytes = requestPayloadBytes it is the message
     * ClusterSimulator::handOff sends for a dispatch (sendTransfer
     * from the hub endpoint, requestBytes() long).
     */
    void sendRequest(int node, double bytes, Callback on_delivered);

    /** Wire size of one dispatched request (payload + overhead). */
    double requestBytes() const
    {
        return cfg_.requestPayloadBytes + cfg_.requestOverheadBytes;
    }

    /** Node-to-node payload (drain re-placement, migration). */
    void sendTransfer(int from, int to, double bytes,
                      Callback on_delivered);

    /** Congestion estimate of the hub -> node route right now. */
    double hubCongestion(int node);

    /** Stretch (factor > 1) or heal (1.0) a node's adjacent links. */
    void degradeNode(int node, double factor);

    std::int64_t inFlight() const { return net_.messagesInFlight(); }
    std::int64_t messagesDelivered() const
    {
        return net_.messagesDelivered();
    }
    std::int64_t flitsDelivered() const
    {
        return net_.flitsDelivered();
    }
    std::int64_t creditStalls() const { return net_.creditStalls(); }

    const sim::Network &network() const { return net_; }
    sim::Network &network() { return net_; }

  private:
    FabricConfig cfg_;
    int nodes_;
    sim::Network net_;
};

/** Resolve a FabricConfig into the sim-layer NetworkConfig. */
sim::NetworkConfig toNetworkConfig(const FabricConfig &cfg, int nodes);

} // namespace sn40l::coe

#endif // SN40L_COE_FABRIC_H

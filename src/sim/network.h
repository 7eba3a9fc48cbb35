/**
 * @file
 * Event-driven link/credit interconnect on sim::EventQueue.
 *
 * A Network is a directed graph of unidirectional links between nodes
 * (terminal endpoints plus internal switches, depending on topology).
 * Messages are serialized into flits; each flit
 *
 *   - waits in a per-input-port FIFO at its next link's transmitter,
 *   - wins the output port through round-robin arbitration across the
 *     input ports (VC-style: one queue per upstream link, so two
 *     streams merging at a switch interleave fairly instead of one
 *     draining first),
 *   - consumes one credit of the link (a slot in the downstream input
 *     buffer), occupies the wire for its serialization time, and lands
 *     after the link latency,
 *   - returns the credit one link latency after it leaves the
 *     downstream buffer (ejection at an endpoint, or winning the next
 *     hop's arbitration at a switch).
 *
 * A transmitter that has flits queued but no credits stalls (counted);
 * nothing is ever dropped. Because a held credit is a held buffer
 * slot, a congested downstream link backpressures through shared
 * upstream links — the head-of-line coupling that makes a single
 * degraded link hurt every flow behind it, which is exactly what the
 * topology-aware dispatch ablation measures.
 *
 * Topologies: star (every endpoint hangs off one central switch),
 * 2-D mesh / torus of combined endpoint+router cells with
 * dimension-order (XY) routing, and a two-level fat-tree (endpoint ->
 * leaf -> spine) whose spine choice is a deterministic hash of the
 * leaf pair. All routing is computed once per (src, dst) pair and
 * cached, so routes — and therefore results — are a pure function of
 * the configuration.
 *
 * Trains: while no two input ports contend for a link and no credit
 * window can bind, a message rides as a train (virtual cut-through):
 * send() plans every hop's flit departures in closed form
 * (start + k * pitch) and schedules one event, the delivery. All
 * observers report the per-flit values at eq.now(). The first send
 * that would contend, or a rate change under a moving train, hands
 * every train to the per-flit engine at the current tick (exact
 * queues, credits, cursors, and pending rx/tx/credit events); the
 * network returns to trains once the per-flit engine drains.
 *
 * Determinism: all state lives behind one EventQueue; ties resolve in
 * FIFO schedule order and the round-robin cursors advance only inside
 * events, so a run is bit-reproducible for a fixed config regardless
 * of wall-clock interleaving outside the queue.
 */

#ifndef SN40L_SIM_NETWORK_H
#define SN40L_SIM_NETWORK_H

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/ticks.h"

namespace sn40l::sim {

enum class Topology {
    Star,    ///< endpoints <-> one central switch
    Mesh2D,  ///< grid of endpoint+router cells, XY routing
    Torus2D, ///< mesh with wraparound links, shortest-direction XY
    FatTree, ///< endpoints -> leaf switches -> spine switches
};

const char *topologyName(Topology topology);
Topology topologyFromName(const std::string &name);

struct NetworkConfig
{
    Topology topology = Topology::Star;

    /** Terminal nodes (message sources/sinks), ids 0..endpoints-1. */
    int endpoints = 1;

    /** Per-link bandwidth; each flit occupies its link for
     *  chunkBytes / linkBytesPerSec (>= 1 tick). */
    double linkBytesPerSec = 25e9;

    /** Per-hop propagation latency, and the credit-return delay. */
    Tick linkLatency = fromUs(2.0);

    /** Downstream input-buffer depth per link == its credit count. */
    int bufferFlits = 64;

    /** Serialization quantum: messages split into ceil(bytes/flit)
     *  flits, capped by maxFlitsPerMessage (large payloads chunk
     *  coarser so a multi-GB DMA does not become millions of
     *  events). */
    double flitBytes = 4096.0;
    int maxFlitsPerMessage = 256;

    /** Mesh/torus width; 0 derives a near-square grid. */
    int meshCols = 0;

    /** Fat-tree shape: endpoints per leaf switch, spine count. */
    int fatTreeRadix = 4;
    int fatTreeSpines = 2;
};

/**
 * FatalError on a non-positive or contradictory configuration, or on
 * links so slow that a full message's serialization would not fit in
 * a Tick.
 */
void validateNetworkConfig(const NetworkConfig &cfg);

/** Longest serialization span (ticks) a message may occupy a link. */
constexpr double kMaxSerializationTicks = static_cast<double>(kMaxTick / 4);

class Network
{
  public:
    using Callback = std::function<void()>;

    Network(EventQueue &eq, const NetworkConfig &cfg);

    /**
     * Send @p bytes from endpoint @p src to endpoint @p dst;
     * @p on_delivered fires (inside the event that ejects the last
     * flit) when the whole message has landed. src == dst delivers at
     * the current tick without touching any link.
     */
    void send(int src, int dst, double bytes, Callback on_delivered);

    /** Links along the cached route src -> dst (size == hop count). */
    const std::vector<int> &route(int src, int dst);

    /**
     * Congestion estimate of the route src -> dst: per link, the
     * queued flits (plus 1 mid-serialization) scaled by the link's
     * serialization stretch factor, plus the stretch itself — so a
     * degraded link advertises its slowness even when idle. Reading
     * it never mutates state visible to the simulation, so a
     * dispatch policy may poll it between events. With no message in
     * flight every link is empty and idle, and the answer is the
     * route's cached sum of stretches, bit-identical to the walk.
     */
    double pathCongestion(int src, int dst);

    /**
     * Stretch the serialization time of every link adjacent to
     * endpoint @p endpoint by @p factor >= 1 (1.0 heals). On mesh /
     * torus the endpoint is its router, so through-traffic crossing
     * the cell degrades too — a degraded NIC hurts its neighbourhood.
     */
    void setEndpointLinkFactor(int endpoint, double factor);

    // ---- observability -------------------------------------------

    int endpointCount() const { return cfg_.endpoints; }
    std::int64_t messagesSent() const { return messagesSent_; }
    std::int64_t messagesDelivered() const { return messagesDelivered_; }
    std::int64_t messagesInFlight() const { return inFlight_; }
    /** Flits ejected at their destination endpoint. */
    std::int64_t flitsDelivered() const;
    /** Transmit attempts that found flits queued but zero credits. */
    std::int64_t creditStalls() const { return creditStalls_; }
    /** Per-link state reads behind pathCongestion (busy fabric). */
    std::int64_t linkWalks() const { return linkWalks_; }
    /** pathCongestion reads answered from the idle-route cache. */
    std::int64_t idleCongestionReads() const { return idleReads_; }
    /** Messages the per-flit engine carried, wholly or in part
     *  (sent while it was active, or handed over mid-train). */
    std::int64_t trainFallbacks() const { return trainFallbacks_; }

    int linkCount() const { return static_cast<int>(links_.size()); }
    int linkFrom(int link) const;
    int linkTo(int link) const;
    /** Cumulative ticks the link spent serializing flits. */
    Tick linkBusyTicks(int link) const;
    std::int64_t linkFlits(int link) const;
    /** "ep3" for an endpoint, "sw1" for an internal switch. */
    std::string nodeLabel(int node) const;

  private:
    friend class NetworkTestPeer; ///< per-flit-only reference runs

    struct Entry
    {
        int msg;
        int hop; ///< index into the message's route
    };

    /**
     * One message's train on one link. Flit k lands in the link's
     * input queue at arrive0 + k * arrivePitch, leaves it at
     * depart0 + k * pitch, and its credit is back on the link at
     * credit0 + k * creditPitch. A virtual event at exactly eq.now()
     * counts as not yet run, except what send() itself did (queue the
     * message and, on an idle link, start the first flit).
     */
    struct Train
    {
        int msg = 0;
        int hop = 0;
        int port = 0;      ///< input port on the link
        int ports = 1;     ///< port count while it transmits (rr modulus)
        bool newPort = false; ///< this train registered the port
        bool lastHop = false;
        bool delivered = false; ///< last hop: the delivery event ran
        int flits = 0;
        Tick ser = 0;      ///< per-flit serialization on this link
        Tick arrive0 = 0, arrivePitch = 0; ///< arrivePitch 0: queued at send
        Tick depart0 = 0, pitch = 0;
        Tick credit0 = 0, creditPitch = 0;

        Tick departAt(int k) const { return depart0 + k * pitch; }
        Tick lastDepart() const { return departAt(flits - 1); }
        Tick creditAt(int k) const { return credit0 + k * creditPitch; }
        int arrived(Tick now) const;
        int departed(Tick now) const;
    };

    struct Link
    {
        int from;
        int to;
        double rateFactor = 1.0; ///< >= 1 stretches serialization
        Tick freeAt = 0;
        int credits;
        bool armed = false; ///< a pump event is already scheduled
        int rr = 0;         ///< round-robin cursor over input ports
        int queued = 0;     ///< flits across all input ports
        std::vector<int> upstream;        ///< port -> feeding link (-1 local)
        std::vector<std::deque<Entry>> q; ///< per-port FIFO
        // stats
        std::int64_t flits = 0;
        Tick busyTicks = 0;
        /** Live trains in time order from trainHead; the fields above
         *  hold only what retired trains and the per-flit engine did. */
        std::vector<Train> trains;
        std::size_t trainHead = 0;
    };

    struct Message
    {
        const std::vector<int> *path = nullptr;
        double chunkBytes = 0.0;
        int flits = 0;
        int delivered = 0;
        Callback onDelivered;
        // while it rides as a train
        int trainSlot = -1;      ///< index in trainMsgs_
        Tick eject0 = 0, ejectPitch = 0; ///< landings at the destination
        EventQueue::Handle delivery;
    };

    int addLink(int from, int to);
    int linkBetween(int from, int to) const;
    void buildStar();
    void buildGrid(bool wrap);
    void buildFatTree();
    std::vector<int> computeRoute(int src, int dst) const;
    std::size_t routeSlot(int src, int dst);
    /** pathCongestion of @p path from the live link state. */
    double walkCongestion(const std::vector<int> &path) const;
    /** pathCongestion of @p path on an empty, idle fabric. */
    double idleCongestion(const std::vector<int> &path) const;
    std::vector<int> gridRoute(int src, int dst, bool wrap) const;
    int portOf(const Link &l, int upstream_link) const;
    void pushFlit(int link, int upstream_link, int msg, int hop);
    void pump(int link);
    void arm(int link, Tick when);
    void returnCredit(int link);
    void arriveFlit(int link, int msg, int hop);
    Tick serTicks(double chunk_bytes, const Link &l) const;
    void checkSpan(const std::vector<int> &path, double chunk_bytes,
                   int flits) const;

    // ---- per-flit engine events (counted so it knows when it drains)
    void scheduleTx(int link, Tick when);
    void scheduleRx(int link, int msg, int hop, Tick when);
    void scheduleCredit(int link, Tick when);
    void flitEventDone();

    // ---- trains
    bool planTrains(int msg, const std::vector<int> &path);
    bool creditsHold(const Link &l, const Train &t);
    bool creditsScan(const Link &l, const Train &t) const;
    void startTrains(int msg);
    void deliverTrain(int msg);
    void retireTrains(Link &l);
    void handOver();
    void linkNow(const Link &l, int &queued, Tick &free_at) const;

    int allocMessage();
    void freeMessage(int msg);

    EventQueue &eq_;
    NetworkConfig cfg_;
    int numNodes_ = 0;    ///< endpoints + switches
    int meshCols_ = 0;    ///< resolved grid width (mesh/torus)
    int meshRows_ = 0;
    std::vector<Link> links_;
    std::vector<std::vector<int>> linksFrom_; ///< node -> outgoing links
    /** Flat route table: src * endpoints + dst -> index into routes_
     *  (-1 until first use). A deque keeps cached paths in place. */
    std::vector<int> routeSlot_;
    std::deque<std::vector<int>> routes_;
    /** Per route slot: idleCongestion(), refreshed on every re-rate. */
    std::vector<double> idleCongestion_;
    std::int64_t linkWalks_ = 0;
    std::int64_t idleReads_ = 0;
    /** Test-only: check every idle read against the walk (panics). */
    bool auditIdle_ = false;
    std::vector<Message> messages_; ///< slab, recycled via freeIds_
    std::vector<int> freeIds_;
    std::int64_t messagesSent_ = 0;
    std::int64_t messagesDelivered_ = 0;
    std::int64_t inFlight_ = 0;
    std::int64_t flitsDelivered_ = 0;
    std::int64_t creditStalls_ = 0;
    std::int64_t trainFallbacks_ = 0;

    bool trainsEnabled_ = true; ///< false only in test reference runs
    bool trainMode_ = true;     ///< false while the per-flit engine runs
    std::int64_t flitEvents_ = 0; ///< pending per-flit engine events
    std::vector<int> trainMsgs_;  ///< undelivered train messages
    std::vector<Train> plan_;     ///< scratch for planTrains
    std::int64_t creditScans_ = 0; ///< creditsHold calls that fell back
};

} // namespace sn40l::sim

#endif // SN40L_SIM_NETWORK_H

/**
 * @file
 * Reconfigurable Dataflow Network model (Section IV-C): a 2-D mesh of
 * non-blocking switches with
 *   - dimension-order and static-flow routing,
 *   - multicast route trees for one-to-many streams,
 *   - sequence-ID reordering for many-to-one streams,
 *   - credit-based flow control on links,
 *   - per-link flow accounting for congestion analysis.
 */

#ifndef SN40L_ARCH_RDN_H
#define SN40L_ARCH_RDN_H

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/stats.h"

namespace sn40l::arch {

struct Coord
{
    int x = 0;
    int y = 0;
    bool operator==(const Coord &o) const { return x == o.x && y == o.y; }
    bool operator!=(const Coord &o) const { return !(*this == o); }
    bool operator<(const Coord &o) const
    {
        return x != o.x ? x < o.x : y < o.y;
    }
};

/** Directed link between adjacent switches. */
struct Link
{
    Coord from;
    Coord to;
    bool operator==(const Link &o) const
    {
        return from == o.from && to == o.to;
    }
    bool operator<(const Link &o) const
    {
        return from != o.from ? from < o.from : to < o.to;
    }
};

class RdnMesh
{
  public:
    RdnMesh(int cols, int rows);

    int cols() const { return cols_; }
    int rows() const { return rows_; }
    bool contains(Coord c) const;

    /**
     * Dimension-order (X then Y) route from @p src to @p dst,
     * inclusive of both endpoints. Deadlock-free by construction.
     */
    std::vector<Coord> route(Coord src, Coord dst) const;

    /** The directed links along route(src, dst). */
    std::vector<Link> routeLinks(Coord src, Coord dst) const;

    /**
     * Static-flow multicast tree: the union of dimension-order routes
     * from @p src to each destination. Shared prefixes are traversed
     * once — the switch replicates packets at fan-out points
     * (Section IV-C, static flow routing).
     * @return the set of directed links in the tree.
     */
    std::set<Link> multicastTree(Coord src,
                                 const std::vector<Coord> &dsts) const;

    // ---- Flow-level congestion accounting -------------------------

    /** Add a persistent flow of @p bytes_per_sec along route(src,dst). */
    void addFlow(Coord src, Coord dst, double bytes_per_sec);

    /** Add a multicast flow along the tree (each tree link loaded once). */
    void addMulticastFlow(Coord src, const std::vector<Coord> &dsts,
                          double bytes_per_sec);

    void clearFlows();

    /** Load on the most-loaded link, bytes/sec. */
    double maxLinkLoad() const;

    /**
     * Congestion factor for a link bandwidth of @p link_bw: 1.0 when
     * every link fits, >1 when the hottest link is oversubscribed
     * (time dilation for streams crossing it).
     */
    double congestionFactor(double link_bw) const;

  private:
    int cols_;
    int rows_;
    std::map<Link, double> linkLoad_;
};

/**
 * One steady-state on-chip stream, extracted by the compiler's
 * traffic analyzer for event-driven replay. Multicast trees are
 * expanded per destination (an upper bound: the replay charges shared
 * prefixes once per destination where the switch replicates in place).
 */
struct MeshFlow
{
    Coord src;
    Coord dst;
    double bytesPerSec = 0.0;
};

/**
 * Event-driven congestion estimate: replay one burst window of the
 * flow set on the link/credit interconnect (sim::Network, Mesh2D at
 * on-chip scale — 64-byte flits, nanosecond hop latency) and report
 * the time dilation actually observed instead of the closed-form
 * max-link ratio. Each flow injects bytesPerSec * burst_factor *
 * window_seconds at t = 0; the result is makespan / window, floored
 * at 1.0. Flows with src == dst or a non-positive rate are skipped.
 *
 * This retires the static RdnMesh::congestionFactor formula as the
 * primary estimate: credit backpressure and XY route overlap are
 * modeled, not approximated. The analytic formula stays available as
 * a labeled reference (bench/abl_rdn_congestion).
 */
double simulatedCongestionFactor(const std::vector<MeshFlow> &flows,
                                 int cols, int rows, double link_bw,
                                 double burst_factor = 2.0,
                                 double window_seconds = 1e-6);

/**
 * Sequence-ID reorder buffer (Section IV-C, many-to-one): packets
 * tagged with software-assigned sequence IDs arrive out of order; the
 * consumer drains the in-order prefix.
 */
class ReorderBuffer
{
  public:
    explicit ReorderBuffer(std::uint64_t first_expected = 0)
        : next_(first_expected) {}

    /** Accept a packet with sequence id @p seq. Duplicate ids panic. */
    void push(std::uint64_t seq);

    /**
     * Pop the contiguous in-order prefix starting at the next expected
     * id. @return how many packets were released.
     */
    std::size_t drain();

    std::uint64_t nextExpected() const { return next_; }
    std::size_t pendingOutOfOrder() const { return pending_.size(); }
    std::size_t maxOccupancy() const { return maxOccupancy_; }

  private:
    std::uint64_t next_;
    std::set<std::uint64_t> pending_;
    std::size_t maxOccupancy_ = 0;
};

/**
 * Credit-based flow-controlled link (Section IV-C): the sender may
 * have at most @p credits flits in flight; each flit occupies the link
 * for @p flit_time and its credit returns @p credit_latency after
 * delivery. Senders that exhaust credits stall (counted).
 */
class CreditLink
{
  public:
    using Callback = std::function<void()>;

    CreditLink(sim::EventQueue &eq, std::string name, int credits,
               sim::Tick flit_time, sim::Tick credit_latency);

    /**
     * Send a message of @p flits flits; @p on_delivered fires when the
     * last flit is delivered.
     */
    void send(int flits, Callback on_delivered);

    sim::StatSet &stats() { return stats_; }

  private:
    void trySend();

    struct Message
    {
        int flitsLeft;
        Callback onDelivered;
    };

    sim::EventQueue &eq_;
    std::string name_;
    std::string flitLabel_;   ///< precomputed event names: schedule()
    std::string creditLabel_; ///< keeps a pointer, not a copy
    int credits_;
    int maxCredits_;
    sim::Tick flitTime_;
    sim::Tick creditLatency_;
    sim::Tick linkFreeAt_ = 0;
    std::queue<Message> sendQueue_;
    sim::StatSet stats_;
};

} // namespace sn40l::arch

#endif // SN40L_ARCH_RDN_H

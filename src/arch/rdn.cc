#include "arch/rdn.h"

#include <algorithm>

#include "sim/log.h"
#include "sim/network.h"
#include "sim/ticks.h"

namespace sn40l::arch {

RdnMesh::RdnMesh(int cols, int rows) : cols_(cols), rows_(rows)
{
    if (cols <= 0 || rows <= 0)
        sim::fatal("RdnMesh: non-positive dimensions");
}

bool
RdnMesh::contains(Coord c) const
{
    return c.x >= 0 && c.x < cols_ && c.y >= 0 && c.y < rows_;
}

std::vector<Coord>
RdnMesh::route(Coord src, Coord dst) const
{
    if (!contains(src) || !contains(dst))
        sim::panic("RdnMesh::route: coordinate off mesh");

    std::vector<Coord> path;
    Coord cur = src;
    path.push_back(cur);
    while (cur.x != dst.x) {
        cur.x += cur.x < dst.x ? 1 : -1;
        path.push_back(cur);
    }
    while (cur.y != dst.y) {
        cur.y += cur.y < dst.y ? 1 : -1;
        path.push_back(cur);
    }
    return path;
}

std::vector<Link>
RdnMesh::routeLinks(Coord src, Coord dst) const
{
    std::vector<Coord> path = route(src, dst);
    std::vector<Link> links;
    for (std::size_t i = 1; i < path.size(); ++i)
        links.push_back({path[i - 1], path[i]});
    return links;
}

std::set<Link>
RdnMesh::multicastTree(Coord src, const std::vector<Coord> &dsts) const
{
    std::set<Link> tree;
    for (Coord dst : dsts) {
        for (const Link &link : routeLinks(src, dst))
            tree.insert(link);
    }
    return tree;
}

void
RdnMesh::addFlow(Coord src, Coord dst, double bytes_per_sec)
{
    for (const Link &link : routeLinks(src, dst))
        linkLoad_[link] += bytes_per_sec;
}

void
RdnMesh::addMulticastFlow(Coord src, const std::vector<Coord> &dsts,
                          double bytes_per_sec)
{
    for (const Link &link : multicastTree(src, dsts))
        linkLoad_[link] += bytes_per_sec;
}

void
RdnMesh::clearFlows()
{
    linkLoad_.clear();
}

double
RdnMesh::maxLinkLoad() const
{
    double worst = 0.0;
    for (const auto &kv : linkLoad_)
        worst = std::max(worst, kv.second);
    return worst;
}

double
RdnMesh::congestionFactor(double link_bw) const
{
    if (link_bw <= 0.0)
        sim::fatal("RdnMesh: non-positive link bandwidth");
    return std::max(1.0, maxLinkLoad() / link_bw);
}

double
simulatedCongestionFactor(const std::vector<MeshFlow> &flows, int cols,
                          int rows, double link_bw,
                          double burst_factor, double window_seconds)
{
    if (cols <= 0 || rows <= 0)
        sim::fatal("simulatedCongestionFactor: non-positive mesh "
                   "dimensions");
    if (link_bw <= 0.0)
        sim::fatal("simulatedCongestionFactor: non-positive link "
                   "bandwidth");
    if (burst_factor < 1.0)
        sim::fatal("simulatedCongestionFactor: burst factor must be "
                   ">= 1");
    if (window_seconds <= 0.0)
        sim::fatal("simulatedCongestionFactor: non-positive burst "
                   "window");

    sim::EventQueue eq;
    sim::NetworkConfig net;
    net.topology = sim::Topology::Mesh2D;
    net.endpoints = cols * rows;
    net.meshCols = cols; // exact chip geometry, not the sqrt default
    net.linkBytesPerSec = link_bw;
    net.linkLatency = sim::fromUs(0.001); // 1 ns per hop on chip
    net.bufferFlits = 16;
    net.flitBytes = 64.0; // RDN packet granularity
    // Large bursts chunk into many flits; cap serialization quanta,
    // not modeled bytes (chunk size scales up past the cap).
    net.maxFlitsPerMessage = 4096;
    sim::Network mesh(eq, net);

    auto id = [cols](Coord c) { return c.y * cols + c.x; };
    sim::Tick makespan = 0;
    bool sent = false;
    for (const MeshFlow &f : flows) {
        if (f.bytesPerSec <= 0.0 || f.src == f.dst)
            continue;
        double burst = f.bytesPerSec * burst_factor * window_seconds;
        mesh.send(id(f.src), id(f.dst), burst,
                  [&eq, &makespan] {
                      makespan = std::max(makespan, eq.now());
                  });
        sent = true;
    }
    if (!sent)
        return 1.0;
    eq.run();
    return std::max(1.0, sim::toSeconds(makespan) / window_seconds);
}

void
ReorderBuffer::push(std::uint64_t seq)
{
    if (seq < next_ || pending_.count(seq))
        sim::panic("ReorderBuffer: duplicate or stale sequence id " +
                   std::to_string(seq));
    pending_.insert(seq);
    maxOccupancy_ = std::max(maxOccupancy_, pending_.size());
}

std::size_t
ReorderBuffer::drain()
{
    std::size_t released = 0;
    while (!pending_.empty() && *pending_.begin() == next_) {
        pending_.erase(pending_.begin());
        ++next_;
        ++released;
    }
    return released;
}

CreditLink::CreditLink(sim::EventQueue &eq, std::string name, int credits,
                       sim::Tick flit_time, sim::Tick credit_latency)
    : eq_(eq), name_(std::move(name)),
      flitLabel_(name_ + ".flit_delivered"),
      creditLabel_(name_ + ".credit_return"), credits_(credits),
      maxCredits_(credits), flitTime_(flit_time),
      creditLatency_(credit_latency), stats_(name_)
{
    if (credits <= 0)
        sim::fatal("CreditLink " + name_ + ": need at least one credit");
    if (flit_time <= 0)
        sim::fatal("CreditLink " + name_ + ": flit time must be positive");
}

void
CreditLink::send(int flits, Callback on_delivered)
{
    if (flits <= 0)
        sim::panic("CreditLink " + name_ + ": empty message");
    sendQueue_.push({flits, std::move(on_delivered)});
    stats_.inc("messages");
    stats_.inc("flits_requested", flits);
    trySend();
}

void
CreditLink::trySend()
{
    while (!sendQueue_.empty()) {
        if (credits_ == 0) {
            stats_.inc("credit_stalls");
            return; // retry when a credit returns
        }
        Message &msg = sendQueue_.front();
        --credits_;

        // Serialize flits on the wire.
        sim::Tick start = std::max(eq_.now(), linkFreeAt_);
        sim::Tick delivered = start + flitTime_;
        linkFreeAt_ = delivered;
        stats_.inc("flits_sent");

        bool last = --msg.flitsLeft == 0;
        Callback cb;
        if (last) {
            cb = std::move(msg.onDelivered);
            sendQueue_.pop();
        }

        eq_.schedule(delivered, [this, cb = std::move(cb)]() {
            if (cb)
                cb();
            // Credit returns to the sender after the return latency.
            eq_.scheduleIn(creditLatency_, [this]() {
                if (credits_ < maxCredits_)
                    ++credits_;
                trySend();
            }, creditLabel_.c_str());
        }, flitLabel_.c_str());
    }
}

} // namespace sn40l::arch

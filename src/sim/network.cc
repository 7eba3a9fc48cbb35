#include "sim/network.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "sim/log.h"

namespace sn40l::sim {

const char *
topologyName(Topology topology)
{
    switch (topology) {
      case Topology::Star: return "star";
      case Topology::Mesh2D: return "mesh";
      case Topology::Torus2D: return "torus";
      case Topology::FatTree: return "fat-tree";
    }
    panic("topologyName: unknown topology");
}

Topology
topologyFromName(const std::string &name)
{
    if (name == "star")
        return Topology::Star;
    if (name == "mesh" || name == "mesh2d")
        return Topology::Mesh2D;
    if (name == "torus" || name == "torus2d")
        return Topology::Torus2D;
    if (name == "fat-tree" || name == "fattree")
        return Topology::FatTree;
    fatal("unknown topology '" + name +
          "' (expected star, mesh, torus, or fat-tree)");
}

namespace {

/** Ticks to serialize @p bytes at @p bytes_per_sec, as a double, so a
 *  caller can test it against the Tick range before converting. */
double
rawTicks(double bytes, double bytes_per_sec)
{
    return bytes / bytes_per_sec * static_cast<double>(kTicksPerSec);
}

/** #{k in [0, n) : t0 + k * pitch < now}. */
int
countBefore(Tick t0, Tick pitch, int n, Tick now)
{
    if (now <= t0)
        return 0;
    if (pitch == 0)
        return n;
    Tick k = (now - t0 - 1) / pitch + 1;
    return k >= n ? n : static_cast<int>(k);
}

[[noreturn]] void
tooSlow(double bytes, const char *what)
{
    char msg[224];
    std::snprintf(msg, sizeof msg,
                  "Network: a %g-byte %s would serialize past the Tick "
                  "range; link bandwidth too low (linkBytesPerSec, the "
                  "fabric's linkGbps / --link-gbps)",
                  bytes, what);
    fatal(msg);
}

} // namespace

void
validateNetworkConfig(const NetworkConfig &cfg)
{
    if (cfg.endpoints < 1)
        fatal("NetworkConfig: need at least one endpoint");
    if (cfg.linkBytesPerSec <= 0.0)
        fatal("NetworkConfig: non-positive link bandwidth");
    if (cfg.linkLatency < 0)
        fatal("NetworkConfig: negative link latency");
    if (cfg.bufferFlits < 1)
        fatal("NetworkConfig: need at least one buffer flit (credit)");
    if (cfg.flitBytes <= 0.0)
        fatal("NetworkConfig: non-positive flit size");
    if (cfg.maxFlitsPerMessage < 1)
        fatal("NetworkConfig: need at least one flit per message");
    if (cfg.meshCols < 0)
        fatal("NetworkConfig: negative mesh width");
    if (cfg.fatTreeRadix < 1 || cfg.fatTreeSpines < 1)
        fatal("NetworkConfig: fat-tree radix and spine count must be "
              "positive");
    if (!(rawTicks(cfg.flitBytes, cfg.linkBytesPerSec) *
              cfg.maxFlitsPerMessage <
          kMaxSerializationTicks))
        fatal("NetworkConfig: linkBytesPerSec too low: a full message "
              "would serialize past the Tick range (raise the fabric's "
              "linkGbps / --link-gbps)");
}

Network::Network(EventQueue &eq, const NetworkConfig &cfg)
    : eq_(eq), cfg_(cfg)
{
    validateNetworkConfig(cfg_);
    switch (cfg_.topology) {
      case Topology::Star:
        buildStar();
        break;
      case Topology::Mesh2D:
        buildGrid(/*wrap=*/false);
        break;
      case Topology::Torus2D:
        buildGrid(/*wrap=*/true);
        break;
      case Topology::FatTree:
        buildFatTree();
        break;
    }
}

int
Network::addLink(int from, int to)
{
    Link l;
    l.from = from;
    l.to = to;
    l.credits = cfg_.bufferFlits;
    int id = static_cast<int>(links_.size());
    links_.push_back(std::move(l));
    if (linksFrom_.size() < static_cast<std::size_t>(numNodes_))
        linksFrom_.resize(static_cast<std::size_t>(numNodes_));
    linksFrom_[static_cast<std::size_t>(from)].push_back(id);
    return id;
}

int
Network::linkBetween(int from, int to) const
{
    for (int id : linksFrom_[static_cast<std::size_t>(from)])
        if (links_[static_cast<std::size_t>(id)].to == to)
            return id;
    panic("Network: no link " + std::to_string(from) + " -> " +
          std::to_string(to));
}

void
Network::buildStar()
{
    const int E = cfg_.endpoints;
    numNodes_ = E + 1; // endpoints + the hub switch
    for (int e = 0; e < E; ++e) {
        addLink(e, E);
        addLink(E, e);
    }
}

void
Network::buildGrid(bool wrap)
{
    const int E = cfg_.endpoints;
    meshCols_ = cfg_.meshCols > 0
        ? cfg_.meshCols
        : std::max(1, static_cast<int>(std::ceil(std::sqrt(
              static_cast<double>(E)))));
    meshRows_ = (E + meshCols_ - 1) / meshCols_;
    // Every grid cell is a router; the first `endpoints` cells are
    // also terminals. Routes may pass through terminal-less cells.
    numNodes_ = meshCols_ * meshRows_;
    auto id = [this](int x, int y) { return y * meshCols_ + x; };
    for (int y = 0; y < meshRows_; ++y) {
        for (int x = 0; x < meshCols_; ++x) {
            if (x + 1 < meshCols_) {
                addLink(id(x, y), id(x + 1, y));
                addLink(id(x + 1, y), id(x, y));
            }
            if (y + 1 < meshRows_) {
                addLink(id(x, y), id(x, y + 1));
                addLink(id(x, y + 1), id(x, y));
            }
        }
    }
    if (wrap) {
        // Wrap links only when they are not duplicates of the mesh
        // links (a 2-wide dimension already has both directions).
        if (meshCols_ > 2)
            for (int y = 0; y < meshRows_; ++y) {
                addLink(id(meshCols_ - 1, y), id(0, y));
                addLink(id(0, y), id(meshCols_ - 1, y));
            }
        if (meshRows_ > 2)
            for (int x = 0; x < meshCols_; ++x) {
                addLink(id(x, meshRows_ - 1), id(x, 0));
                addLink(id(x, 0), id(x, meshRows_ - 1));
            }
    }
}

void
Network::buildFatTree()
{
    const int E = cfg_.endpoints;
    const int r = cfg_.fatTreeRadix;
    const int leaves = (E + r - 1) / r;
    const int spines = cfg_.fatTreeSpines;
    numNodes_ = E + leaves + spines;
    for (int e = 0; e < E; ++e) {
        int leaf = E + e / r;
        addLink(e, leaf);
        addLink(leaf, e);
    }
    for (int l = 0; l < leaves; ++l)
        for (int s = 0; s < spines; ++s) {
            addLink(E + l, E + leaves + s);
            addLink(E + leaves + s, E + l);
        }
}

std::vector<int>
Network::gridRoute(int src, int dst, bool wrap) const
{
    std::vector<int> path;
    int x = src % meshCols_, y = src / meshCols_;
    const int dx = dst % meshCols_, dy = dst / meshCols_;
    auto id = [this](int cx, int cy) { return cy * meshCols_ + cx; };
    auto hop = [this, &path](int a, int b) {
        path.push_back(linkBetween(a, b));
    };
    // Dimension order: X first, then Y. On a torus take the shorter
    // direction (ties go positive), stepping through wrap links.
    while (x != dx) {
        int fwd = (dx - x + meshCols_) % meshCols_;
        int nx;
        if (wrap && meshCols_ > 2 &&
            fwd > meshCols_ - fwd) // backward is strictly shorter
            nx = (x + meshCols_ - 1) % meshCols_;
        else if (wrap && meshCols_ > 2)
            nx = (x + 1) % meshCols_;
        else
            nx = x < dx ? x + 1 : x - 1;
        hop(id(x, y), id(nx, y));
        x = nx;
    }
    while (y != dy) {
        int fwd = (dy - y + meshRows_) % meshRows_;
        int ny;
        if (wrap && meshRows_ > 2 && fwd > meshRows_ - fwd)
            ny = (y + meshRows_ - 1) % meshRows_;
        else if (wrap && meshRows_ > 2)
            ny = (y + 1) % meshRows_;
        else
            ny = y < dy ? y + 1 : y - 1;
        hop(id(x, y), id(x, ny));
        y = ny;
    }
    return path;
}

std::vector<int>
Network::computeRoute(int src, int dst) const
{
    const int E = cfg_.endpoints;
    std::vector<int> path;
    auto hop = [this, &path](int a, int b) {
        path.push_back(linkBetween(a, b));
    };
    switch (cfg_.topology) {
      case Topology::Star:
        hop(src, E);
        hop(E, dst);
        break;
      case Topology::Mesh2D:
        return gridRoute(src, dst, /*wrap=*/false);
      case Topology::Torus2D:
        return gridRoute(src, dst, /*wrap=*/true);
      case Topology::FatTree: {
        const int r = cfg_.fatTreeRadix;
        const int leaves = (E + r - 1) / r;
        int ls = E + src / r, ld = E + dst / r;
        hop(src, ls);
        if (ls != ld) {
            // Deterministic spine pick per leaf pair: static path
            // diversity without per-packet adaptivity.
            int spine = E + leaves +
                (src / r * 131 + dst / r) % cfg_.fatTreeSpines;
            hop(ls, spine);
            hop(spine, ld);
        }
        hop(ld, dst);
        break;
      }
    }
    return path;
}

const std::vector<int> &
Network::route(int src, int dst)
{
    if (src < 0 || src >= cfg_.endpoints || dst < 0 ||
        dst >= cfg_.endpoints)
        fatal("Network: endpoint out of range");
    const auto E = static_cast<std::size_t>(cfg_.endpoints);
    if (routeSlot_.empty())
        routeSlot_.assign(E * E, -1);
    int &slot = routeSlot_[static_cast<std::size_t>(src) * E +
                           static_cast<std::size_t>(dst)];
    if (slot < 0) {
        slot = static_cast<int>(routes_.size());
        routes_.push_back(computeRoute(src, dst));
    }
    return routes_[static_cast<std::size_t>(slot)];
}

int
Network::Train::arrived(Tick now) const
{
    // The whole message joins the source queue inside send().
    return hop == 0 ? flits : countBefore(arrive0, arrivePitch, flits, now);
}

int
Network::Train::departed(Tick now) const
{
    int n = countBefore(depart0, pitch, flits, now);
    // On an idle source link send() starts the first flit itself.
    if (n == 0 && hop == 0 && depart0 == arrive0 && depart0 == now)
        n = 1;
    return n;
}

/** Per-flit queue length and freeAt of @p l at eq.now(), trains included. */
void
Network::linkNow(const Link &l, int &queued, Tick &free_at) const
{
    const Tick now = eq_.now();
    queued = l.queued;
    free_at = l.freeAt;
    for (std::size_t i = l.trainHead; i < l.trains.size(); ++i) {
        const Train &t = l.trains[i];
        int dep = t.departed(now);
        queued += t.arrived(now) - dep;
        if (dep > 0)
            free_at = t.departAt(dep - 1) + t.ser;
    }
}

double
Network::pathCongestion(int src, int dst)
{
    double c = 0.0;
    for (int li : route(src, dst)) {
        const Link &l = links_[static_cast<std::size_t>(li)];
        // Occupancy scaled by the link's serialization stretch: a
        // backlog on a slow link takes rateFactor times longer to
        // drain, and an *empty* degraded link still advertises its
        // stretch — a purely reactive signal would keep trickling
        // traffic onto a 40x link until the queue built, each trickle
        // head-of-line blocking the shared upstream hops.
        int queued = 0;
        Tick free_at = 0;
        linkNow(l, queued, free_at);
        double occ = static_cast<double>(queued);
        if (free_at > eq_.now())
            occ += 1.0;
        c += occ * l.rateFactor + (l.rateFactor - 1.0);
    }
    return c;
}

void
Network::setEndpointLinkFactor(int endpoint, double factor)
{
    if (endpoint < 0 || endpoint >= cfg_.endpoints)
        fatal("Network: endpoint out of range");
    if (factor < 1.0)
        fatal("Network: link degrade factor must be at least 1");
    // A train still transmitting on a re-rated link was planned at the
    // old rate: the per-flit engine takes over from here.
    for (const Link &l : links_)
        if (trainMode_ && (l.from == endpoint || l.to == endpoint) &&
            l.rateFactor != factor && l.trainHead < l.trains.size() &&
            l.trains.back().lastDepart() >= eq_.now()) {
            handOver();
            break;
        }
    for (Link &l : links_)
        if (l.from == endpoint || l.to == endpoint)
            l.rateFactor = factor;
}

int
Network::allocMessage()
{
    if (!freeIds_.empty()) {
        int id = freeIds_.back();
        freeIds_.pop_back();
        return id;
    }
    messages_.emplace_back();
    return static_cast<int>(messages_.size()) - 1;
}

void
Network::freeMessage(int msg)
{
    Message &m = messages_[static_cast<std::size_t>(msg)];
    m = Message{};
    freeIds_.push_back(msg);
}

Tick
Network::serTicks(double chunk_bytes, const Link &l) const
{
    double rate = cfg_.linkBytesPerSec / l.rateFactor;
    if (!(rawTicks(chunk_bytes, rate) < kMaxSerializationTicks))
        tooSlow(chunk_bytes, "flit");
    return transferTicks(chunk_bytes, rate);
}

/** FatalError unless every tick of the message's journey fits in Tick. */
void
Network::checkSpan(const std::vector<int> &path, double chunk_bytes,
                   int flits) const
{
    double worst = 0.0;
    for (int li : path)
        worst = std::max(worst, rawTicks(chunk_bytes,
                                         cfg_.linkBytesPerSec /
                                             links_[static_cast<std::size_t>(
                                                 li)].rateFactor));
    double hops = static_cast<double>(path.size());
    double span = worst * (flits + hops) +
        static_cast<double>(cfg_.linkLatency) * 2.0 * (hops + 1.0);
    if (!(span < kMaxSerializationTicks) ||
        !(static_cast<double>(eq_.now()) + span <
          static_cast<double>(kMaxTick) / 2.0))
        tooSlow(flits * chunk_bytes, "message");
}

void
Network::send(int src, int dst, double bytes, Callback on_delivered)
{
    if (!std::isfinite(bytes))
        fatal("Network: non-finite message size");
    if (bytes < 0.0)
        fatal("Network: negative message size");
    ++messagesSent_;
    if (src == dst) {
        // Local delivery: no link is touched, but the completion
        // still fires from an event so callers see one code path.
        ++inFlight_;
        eq_.schedule(
            eq_.now(),
            [this, cb = std::move(on_delivered)]() {
                --inFlight_;
                ++messagesDelivered_;
                if (cb)
                    cb();
            },
            "net.local");
        return;
    }
    const std::vector<int> &path = route(src, dst);
    // Clamp in double: the raw quotient may not fit in an int.
    int flits = static_cast<int>(
        std::min(std::ceil(bytes / cfg_.flitBytes),
                 static_cast<double>(cfg_.maxFlitsPerMessage)));
    flits = std::max(1, flits);
    const double chunk_bytes = bytes / static_cast<double>(flits);
    checkSpan(path, chunk_bytes, flits);
    int id = allocMessage();
    Message &m = messages_[static_cast<std::size_t>(id)];
    m.path = &path;
    m.chunkBytes = chunk_bytes;
    m.flits = flits;
    m.delivered = 0;
    m.onDelivered = std::move(on_delivered);
    ++inFlight_;
    if (trainMode_) {
        if (planTrains(id, path)) {
            startTrains(id);
            return;
        }
        handOver();
    }
    ++trainFallbacks_;
    // The source NIC queues the whole message at once; credit-based
    // backpressure then paces it hop by hop (the injection queue is
    // the sender stalling, not a drop).
    for (int f = 0; f < flits; ++f)
        pushFlit(path[0], /*upstream_link=*/-1, id, 0);
    pump(path[0]);
}

// ---------------------------------------------------------- trains

/**
 * Plan message @p msg as one train per hop into plan_. False when the
 * per-flit engine must carry it: a second input port would share a
 * link with it, its arrivals could not keep one pitch, or a credit
 * window could bind (ties with a credit return count as binding).
 */
bool
Network::planTrains(int msg, const std::vector<int> &path)
{
    const Message &m = messages_[static_cast<std::size_t>(msg)];
    const Tick lat = cfg_.linkLatency;
    plan_.clear();
    Tick arrive0 = eq_.now(), arrive_pitch = 0;
    for (std::size_t h = 0; h < path.size(); ++h) {
        Link &l = links_[static_cast<std::size_t>(path[h])];
        retireTrains(l);
        Train t;
        t.msg = msg;
        t.hop = static_cast<int>(h);
        t.lastHop = h + 1 == path.size();
        t.flits = m.flits;
        t.port = portOf(l, h == 0 ? -1 : path[h - 1]);
        t.newPort = t.port < 0;
        if (t.newPort)
            t.port = static_cast<int>(l.upstream.size());
        t.ports = static_cast<int>(l.upstream.size()) + (t.newPort ? 1 : 0);
        t.ser = serTicks(m.chunkBytes, l);
        t.arrive0 = arrive0;
        t.arrivePitch = arrive_pitch;
        Tick free = l.freeAt;
        if (l.trainHead < l.trains.size()) {
            const Train &prev = l.trains.back();
            // Another port while the train ahead still transmits (or
            // in the very tick its last flit leaves) is arbitration.
            if (prev.port != t.port && arrive0 <= prev.lastDepart())
                return false;
            // Same port: this train must queue wholly behind it.
            if (prev.port == t.port && prev.hop > 0 &&
                arrive0 <= prev.arrive0 + (prev.flits - 1) * prev.arrivePitch)
                return false;
            free = prev.lastDepart() + prev.ser;
        }
        t.depart0 = std::max(arrive0, free);
        // Held behind a busy link, arrivals slower than this link
        // drains would open gaps that no single pitch describes.
        if (t.depart0 > arrive0 && arrive_pitch > t.ser)
            return false;
        t.pitch = std::max(arrive_pitch, t.ser);
        plan_.push_back(t);
        arrive0 = t.depart0 + t.ser + lat;
        arrive_pitch = t.pitch;
    }
    // A flit holds its link's credit until it leaves the next hop's
    // input queue (ejection at the destination), plus the return trip.
    for (std::size_t h = 0; h < plan_.size(); ++h) {
        Train &t = plan_[h];
        if (t.lastHop) {
            t.credit0 = t.depart0 + t.ser + 2 * lat;
            t.creditPitch = t.pitch;
        } else {
            t.credit0 = plan_[h + 1].depart0 + lat;
            t.creditPitch = plan_[h + 1].pitch;
        }
    }
    for (std::size_t h = 0; h < plan_.size(); ++h)
        if (!creditsHold(links_[static_cast<std::size_t>(path[h])],
                         plan_[h]))
            return false;
    return true;
}

/**
 * True when every flit of @p t finds a credit on @p l as it departs.
 * Exact in closed form unless another train still holds credits while
 * the peak bound binds. planTrains makes creditPitch >= pitch, so at
 * most one own credit lands per departure interval and the credits the
 * train holds itself never fall from one departure to the next: they
 * peak at its last flit. Credits held by earlier trains only fall as
 * time passes: they peak at depart0.
 */
bool
Network::creditsHold(const Link &l, const Train &t)
{
    const int buffer = cfg_.bufferFlits;
    const int own = t.flits - 1 -
        countBefore(t.credit0, t.creditPitch, t.flits - 1, t.lastDepart());
    int others = 0;
    for (std::size_t i = l.trainHead; i < l.trains.size(); ++i) {
        const Train &o = l.trains[i];
        others += o.flits -
            countBefore(o.credit0, o.creditPitch, o.flits, t.depart0);
    }
    if (own + others < buffer)
        return true;
    if (others == 0)
        return false;
    ++creditScans_;
    return creditsScan(l, t);
}

/** creditsHold by walking every flit: the exact reference. */
bool
Network::creditsScan(const Link &l, const Train &t) const
{
    const int buffer = cfg_.bufferFlits;
    int oldest = 0; // own first flit whose credit is still out
    for (int k = 0; k < t.flits; ++k) {
        Tick d = t.departAt(k);
        while (oldest < k && t.creditAt(oldest) < d)
            ++oldest;
        int held = k - oldest;
        for (std::size_t i = l.trainHead; i < l.trains.size(); ++i) {
            const Train &o = l.trains[i];
            held += o.flits -
                countBefore(o.credit0, o.creditPitch, o.flits, d);
        }
        if (held >= buffer)
            return false;
    }
    return true;
}

void
Network::startTrains(int msg)
{
    Message &m = messages_[static_cast<std::size_t>(msg)];
    const std::vector<int> &path = *m.path;
    for (std::size_t h = 0; h < path.size(); ++h) {
        Link &l = links_[static_cast<std::size_t>(path[h])];
        if (plan_[h].newPort) {
            l.upstream.push_back(h == 0 ? -1 : path[h - 1]);
            l.q.emplace_back();
        }
        l.trains.push_back(plan_[h]);
    }
    const Train &last = plan_.back();
    m.eject0 = last.depart0 + last.ser + cfg_.linkLatency;
    m.ejectPitch = last.pitch;
    m.trainSlot = static_cast<int>(trainMsgs_.size());
    trainMsgs_.push_back(msg);
    m.delivery = eq_.schedule(
        m.eject0 + (m.flits - 1) * m.ejectPitch,
        [this, msg]() { deliverTrain(msg); }, "net.train");
}

/** The event that ejects a train's last flit at its destination. */
void
Network::deliverTrain(int msg)
{
    Message &m = messages_[static_cast<std::size_t>(msg)];
    Link &l = links_[static_cast<std::size_t>(m.path->back())];
    for (std::size_t i = l.trainHead; i < l.trains.size(); ++i) {
        Train &t = l.trains[i];
        if (t.msg == msg && t.lastHop && !t.delivered) {
            t.delivered = true;
            break;
        }
    }
    flitsDelivered_ += m.flits;
    int back = trainMsgs_.back();
    trainMsgs_[static_cast<std::size_t>(m.trainSlot)] = back;
    messages_[static_cast<std::size_t>(back)].trainSlot = m.trainSlot;
    trainMsgs_.pop_back();
    Callback cb = std::move(m.onDelivered);
    freeMessage(msg);
    --inFlight_;
    ++messagesDelivered_;
    if (cb)
        cb();
}

/** Fold trains whose every credit is home into the link's counters. */
void
Network::retireTrains(Link &l)
{
    const Tick now = eq_.now();
    for (; l.trainHead < l.trains.size(); ++l.trainHead) {
        const Train &t = l.trains[l.trainHead];
        if (t.creditAt(t.flits - 1) >= now)
            break;
        l.busyTicks += t.flits * t.ser;
        l.flits += t.flits;
        l.freeAt = t.lastDepart() + t.ser;
        l.rr = (t.port + 1) % t.ports;
    }
    if (l.trainHead == l.trains.size()) {
        l.trains.clear();
        l.trainHead = 0;
    }
}

/**
 * Hand every train to the per-flit engine at eq.now(): rebuild the
 * queues, credits, freeAt, round-robin cursors, and port lists the
 * per-flit model would hold, and schedule its pending rx/tx/credit
 * events ordered by the tick it would have scheduled them at.
 */
void
Network::handOver()
{
    enum Kind { kCredit, kRx, kTx }; // program order inside pump()
    struct Pending
    {
        Tick sched; ///< tick the per-flit model scheduled it at
        int kind;
        Tick when;
        int link, msg, hop;
        bool operator<(const Pending &o) const
        {
            return std::tie(sched, kind, when, link, msg, hop) <
                std::tie(o.sched, o.kind, o.when, o.link, o.msg, o.hop);
        }
    };
    const Tick now = eq_.now();
    const Tick lat = cfg_.linkLatency;
    std::vector<Pending> pending;
    for (std::size_t li = 0; li < links_.size(); ++li) {
        Link &l = links_[li];
        const int link = static_cast<int>(li);
        Tick last_depart = -1;
        Tick next_arrival = -1; // arrival of the first still-queued flit
        for (std::size_t i = l.trainHead; i < l.trains.size(); ++i) {
            const Train &t = l.trains[i];
            int arr = t.arrived(now), dep = t.departed(now);
            if (dep < arr && next_arrival < 0)
                next_arrival = t.hop == 0
                    ? t.arrive0
                    : t.arrive0 + dep * t.arrivePitch;
            for (int k = dep; k < arr; ++k)
                l.q[static_cast<std::size_t>(t.port)].push_back(
                    Entry{t.msg, t.hop});
            l.queued += arr - dep;
            l.flits += dep;
            l.busyTicks += dep * t.ser;
            if (dep > 0) {
                last_depart = t.departAt(dep - 1);
                l.freeAt = last_depart + t.ser;
                l.rr = (t.port + 1) % t.ports;
            }
            // Flits whose credit is not home yet: on the wire, queued
            // at the next hop, or with the credit itself in flight.
            for (int k = countBefore(t.credit0, t.creditPitch, t.flits, now);
                 k < dep; ++k) {
                --l.credits;
                Tick land = t.departAt(k) + t.ser + lat;
                bool landed = land < now || t.delivered;
                if (!landed)
                    pending.push_back(
                        {t.departAt(k), kRx, land, link, t.msg, t.hop});
                Tick credit_sched = t.creditAt(k) - lat;
                if (t.lastHop ? landed : credit_sched < now)
                    pending.push_back(
                        {credit_sched, kCredit, t.creditAt(k), link, -1, -1});
            }
        }
        // Ports registered by trains that have not reached the link.
        for (std::size_t i = l.trains.size(); i-- > l.trainHead;) {
            const Train &t = l.trains[i];
            if (t.newPort && t.arrived(now) == 0) {
                l.upstream.pop_back();
                l.q.pop_back();
            }
        }
        if (l.queued > 0) {
            l.armed = true;
            pending.push_back({std::max(last_depart, next_arrival), kTx,
                               l.freeAt, link, -1, -1});
        }
        l.trains.clear();
        l.trainHead = 0;
    }
    for (int msg : trainMsgs_) {
        Message &m = messages_[static_cast<std::size_t>(msg)];
        m.delivery.cancel();
        m.delivered = countBefore(m.eject0, m.ejectPitch, m.flits, now);
        flitsDelivered_ += m.delivered;
        ++trainFallbacks_;
    }
    trainMsgs_.clear();
    trainMode_ = false;
    std::sort(pending.begin(), pending.end());
    for (const Pending &p : pending) {
        switch (p.kind) {
          case kCredit: scheduleCredit(p.link, p.when); break;
          case kRx: scheduleRx(p.link, p.msg, p.hop, p.when); break;
          case kTx: scheduleTx(p.link, p.when); break;
        }
    }
}

// -------------------------------------------------- per-flit engine

void
Network::scheduleTx(int link, Tick when)
{
    ++flitEvents_;
    eq_.schedule(
        when,
        [this, link]() {
            links_[static_cast<std::size_t>(link)].armed = false;
            pump(link);
            flitEventDone();
        },
        "net.tx");
}

void
Network::scheduleRx(int link, int msg, int hop, Tick when)
{
    ++flitEvents_;
    eq_.schedule(
        when,
        [this, link, msg, hop]() {
            arriveFlit(link, msg, hop);
            flitEventDone();
        },
        "net.rx");
}

void
Network::scheduleCredit(int link, Tick when)
{
    ++flitEvents_;
    eq_.schedule(
        when,
        [this, link]() {
            ++links_[static_cast<std::size_t>(link)].credits;
            pump(link);
            flitEventDone();
        },
        "net.credit");
}

/** Once the per-flit engine drains, new messages ride as trains again. */
void
Network::flitEventDone()
{
    if (--flitEvents_ == 0)
        trainMode_ = trainsEnabled_;
}

int
Network::portOf(const Link &l, int upstream_link) const
{
    for (std::size_t port = 0; port < l.upstream.size(); ++port)
        if (l.upstream[port] == upstream_link)
            return static_cast<int>(port);
    return -1;
}

void
Network::pushFlit(int link, int upstream_link, int msg, int hop)
{
    Link &l = links_[static_cast<std::size_t>(link)];
    int port = portOf(l, upstream_link);
    if (port < 0) {
        port = static_cast<int>(l.upstream.size());
        l.upstream.push_back(upstream_link);
        l.q.emplace_back();
    }
    l.q[static_cast<std::size_t>(port)].push_back(Entry{msg, hop});
    ++l.queued;
}

void
Network::arm(int link, Tick when)
{
    Link &l = links_[static_cast<std::size_t>(link)];
    if (l.armed)
        return;
    l.armed = true;
    scheduleTx(link, when);
}

void
Network::returnCredit(int link)
{
    scheduleCredit(link, eq_.now() + cfg_.linkLatency);
}

/** Try to transmit one flit on @p link; re-arms itself as needed. */
void
Network::pump(int link)
{
    Link &l = links_[static_cast<std::size_t>(link)];
    if (l.queued == 0)
        return;
    Tick now = eq_.now();
    if (l.freeAt > now) {
        arm(link, l.freeAt);
        return;
    }
    if (l.credits == 0) {
        // Backpressured: woken again by the next credit return.
        ++creditStalls_;
        return;
    }
    // Round-robin arbitration across the input ports.
    std::size_t ports = l.q.size();
    std::size_t p = 0;
    for (std::size_t k = 0; k < ports; ++k) {
        p = (static_cast<std::size_t>(l.rr) + k) % ports;
        if (!l.q[p].empty())
            break;
    }
    l.rr = static_cast<int>((p + 1) % ports);
    Entry f = l.q[p].front();
    l.q[p].pop_front();
    --l.queued;
    // The flit leaves the upstream link's downstream buffer: its
    // credit travels back one link latency behind.
    if (l.upstream[p] >= 0)
        returnCredit(l.upstream[p]);
    --l.credits;
    const Message &m = messages_[static_cast<std::size_t>(f.msg)];
    Tick ser = serTicks(m.chunkBytes, l);
    l.freeAt = now + ser;
    l.busyTicks += ser;
    ++l.flits;
    scheduleRx(link, f.msg, f.hop, l.freeAt + cfg_.linkLatency);
    if (l.queued > 0)
        arm(link, l.freeAt);
}

void
Network::arriveFlit(int link, int msg, int hop)
{
    Message &m = messages_[static_cast<std::size_t>(msg)];
    const std::vector<int> &path = *m.path;
    if (static_cast<std::size_t>(hop) + 1 == path.size()) {
        // Ejected at the destination endpoint: the buffer slot frees
        // immediately and the credit signals back upstream.
        returnCredit(link);
        ++flitsDelivered_;
        if (++m.delivered == m.flits) {
            Callback cb = std::move(m.onDelivered);
            freeMessage(msg);
            --inFlight_;
            ++messagesDelivered_;
            if (cb)
                cb();
        }
        return;
    }
    // Forward into the next hop's input queue. The flit keeps holding
    // this link's credit until it wins that arbitration.
    int next = path[static_cast<std::size_t>(hop) + 1];
    pushFlit(next, link, msg, hop + 1);
    pump(next);
}

int
Network::linkFrom(int link) const
{
    return links_[static_cast<std::size_t>(link)].from;
}

int
Network::linkTo(int link) const
{
    return links_[static_cast<std::size_t>(link)].to;
}

Tick
Network::linkBusyTicks(int link) const
{
    const Link &l = links_[static_cast<std::size_t>(link)];
    Tick busy = l.busyTicks;
    for (std::size_t i = l.trainHead; i < l.trains.size(); ++i)
        busy += l.trains[i].departed(eq_.now()) * l.trains[i].ser;
    return busy;
}

std::int64_t
Network::linkFlits(int link) const
{
    const Link &l = links_[static_cast<std::size_t>(link)];
    std::int64_t flits = l.flits;
    for (std::size_t i = l.trainHead; i < l.trains.size(); ++i)
        flits += l.trains[i].departed(eq_.now());
    return flits;
}

std::int64_t
Network::flitsDelivered() const
{
    std::int64_t n = flitsDelivered_;
    for (int msg : trainMsgs_) {
        const Message &m = messages_[static_cast<std::size_t>(msg)];
        n += countBefore(m.eject0, m.ejectPitch, m.flits, eq_.now());
    }
    return n;
}

std::string
Network::nodeLabel(int node) const
{
    if (node < cfg_.endpoints)
        return "ep" + std::to_string(node);
    return "sw" + std::to_string(node - cfg_.endpoints);
}

} // namespace sn40l::sim

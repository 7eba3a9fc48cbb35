#include "coe/workload.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "coe/router.h"
#include "coe/serving.h"
#include "sim/log.h"
#include "sim/rng.h"
#include "sim/ticks.h"
#include "util/json.h"

namespace sn40l::coe {

namespace {

using sim::mix64; // decorrelates per-tenant seeds

/** The arrivals-Rng salt the historical drivers used; kept verbatim
 *  so legacy gap sequences stay bit-identical. */
constexpr std::uint64_t kArrivalSalt = 0xa55a5aa5a55a5aa5ULL;

} // namespace

double
RateShape::instantaneous(double base, double t) const
{
    double rate = base;
    if (diurnalAmplitude > 0.0) {
        // Exactly the expression ClusterSimulator inlined before this
        // subsystem existed — amplitude 0 must leave `base` untouched.
        constexpr double kTwoPi = 6.283185307179586476925286766559;
        rate *= 1.0 +
            diurnalAmplitude * std::sin(kTwoPi * t / diurnalPeriodSeconds);
    }
    if (burstFactor > 1.0 && burstEverySeconds > 0.0) {
        if (std::fmod(t, burstEverySeconds) < burstSeconds)
            rate *= burstFactor;
    }
    return rate;
}

namespace {

/**
 * Trending-adapter churn (ZooServingConfig::churnEverySeconds): every
 * churn period the routed id space rotates by a period-derived
 * pseudo-random offset, so adapters that were hot go cold and the
 * engines pay fresh adapter loads on the live DMA path. A pure
 * function of (zoo config, emission time, routed id): deterministic
 * across reruns, and the identity when the zoo or churn is off.
 */
int
applyZooChurn(const ZooServingConfig &zoo, int num_experts,
              double now_seconds, int expert)
{
    if (!zoo.enabled || zoo.churnEverySeconds <= 0.0)
        return expert;
    auto period = static_cast<std::uint64_t>(
        now_seconds / zoo.churnEverySeconds);
    if (period == 0)
        return expert;
    int offset = static_cast<int>(
        mix64(period) % static_cast<std::uint64_t>(num_experts));
    return (expert + offset) % num_experts;
}

void
validateShape(const RateShape &shape, const std::string &who)
{
    // Comparisons are written so NaN fails them: every comparison
    // with NaN is false.
    if (!(shape.diurnalAmplitude >= 0.0 && shape.diurnalAmplitude < 1.0))
        sim::fatal(who + ": diurnal amplitude must be in [0, 1)");
    if (shape.diurnalAmplitude > 0.0 &&
        !(std::isfinite(shape.diurnalPeriodSeconds) &&
          shape.diurnalPeriodSeconds > 0.0))
        sim::fatal(who + ": non-positive diurnal period");
    if (!(std::isfinite(shape.burstFactor) && shape.burstFactor >= 1.0))
        sim::fatal(who + ": burst factor must be at least 1");
    auto nonNegative = [&who](double seconds, const char *field) {
        if (!(std::isfinite(seconds) && seconds >= 0.0))
            sim::fatal(who + ": " + field +
                       " must be finite and non-negative, got " +
                       std::to_string(seconds));
    };
    nonNegative(shape.burstEverySeconds, "burstEverySeconds (--burst-every)");
    nonNegative(shape.burstSeconds, "burstSeconds (--burst-seconds)");
    if (shape.burstFactor > 1.0) {
        if (!(shape.burstEverySeconds > 0.0 && shape.burstSeconds > 0.0))
            sim::fatal(who + ": bursts need positive --burst-every and "
                             "--burst-seconds");
        if (shape.burstSeconds > shape.burstEverySeconds)
            sim::fatal(who + ": burst window exceeds its period");
    }
}

// ------------------------------------------------------- open loop

/**
 * The historical open-loop Poisson arrival process (optionally
 * rate-shaped), as a model. Chained draws: each arrival event
 * schedules its successor before emitting, so only one arrival event
 * is ever pending and the gap sequence is bit-identical to the old
 * inlined loop (the arrivals Rng feeds nothing else).
 */
class OpenLoopWorkload : public WorkloadModel
{
  public:
    OpenLoopWorkload(const ServingConfig &cfg, const RateShape &shape)
        : router_(cfg.numExperts, cfg.routing, cfg.seed, cfg.zipfS),
          arrivals_(cfg.seed ^ kArrivalSalt),
          baseRate_(cfg.arrivalRatePerSec), shape_(shape),
          total_(cfg.streamRequests),
          sloSeconds_(cfg.workload.sloSeconds), zoo_(cfg.zoo),
          numExperts_(cfg.numExperts)
    {
    }

    void start() override { scheduleNext(); }

    std::int64_t plannedRequests() const override { return total_; }

    void setRateFactor(double factor) override { factor_ = factor; }

  private:
    void
    scheduleNext()
    {
        if (scheduled_ >= total_)
            return;
        ++scheduled_;
        double rate = shape_.instantaneous(baseRate_, arrivalT_) * factor_;
        arrivalT_ += -std::log(1.0 - arrivals_.uniformDouble()) / rate;
        eq().schedule(sim::fromSeconds(arrivalT_),
                      [this]() {
                          scheduleNext();
                          TrafficRequest r;
                          r.expert = applyZooChurn(
                              zoo_, numExperts_,
                              sim::toSeconds(eq().now()),
                              router_.route());
                          r.deadlineSeconds = sloSeconds_;
                          emit(r);
                      },
                      "coe.arrival");
    }

    Router router_;
    sim::Rng arrivals_;
    double baseRate_;
    RateShape shape_;
    std::int64_t total_;
    double sloSeconds_;
    ZooServingConfig zoo_;
    int numExperts_;
    std::int64_t scheduled_ = 0;
    double arrivalT_ = 0.0;
    double factor_ = 1.0;
};

// ----------------------------------------------------- closed loop

/**
 * The historical closed-loop client pool: the initial pool injects at
 * t = 0, and every completed request frees a client to think and
 * re-issue. Event-creation order matches the old inlined loop.
 */
class ClosedLoopWorkload : public WorkloadModel
{
  public:
    explicit ClosedLoopWorkload(const ServingConfig &cfg)
        : router_(cfg.numExperts, cfg.routing, cfg.seed, cfg.zipfS),
          clients_(cfg.clients), thinkSeconds_(cfg.thinkSeconds),
          total_(cfg.streamRequests),
          sloSeconds_(cfg.workload.sloSeconds), zoo_(cfg.zoo),
          numExperts_(cfg.numExperts)
    {
    }

    void
    start() override
    {
        std::int64_t initial =
            std::min<std::int64_t>(clients_, total_);
        for (std::int64_t i = 0; i < initial; ++i) {
            ++scheduled_;
            eq().schedule(0, [this]() { emitOne(); }, "coe.arrival");
        }
    }

    void
    onBatchComplete(int finished) override
    {
        // Each finished client thinks, then issues a new prompt.
        for (int i = 0; i < finished; ++i)
            reissueOne();
    }

    void
    onRequestShed(const TrafficRequest &request) override
    {
        // A shed never joins a batch, so it never reaches
        // onBatchComplete — without this the pool would shrink by one
        // per shed and the run could stall with budget unspent. The
        // refused client thinks, then retries (budget-bounded).
        (void)request;
        reissueOne();
    }

    std::int64_t plannedRequests() const override { return total_; }

  private:
    void
    reissueOne()
    {
        if (scheduled_ >= total_)
            return;
        ++scheduled_;
        eq().scheduleIn(sim::fromSeconds(thinkSeconds_),
                        [this]() { emitOne(); }, "coe.arrival");
    }

    void
    emitOne()
    {
        TrafficRequest r;
        r.expert = applyZooChurn(zoo_, numExperts_,
                                 sim::toSeconds(eq().now()),
                                 router_.route());
        r.deadlineSeconds = sloSeconds_;
        emit(r);
    }

    Router router_;
    int clients_;
    double thinkSeconds_;
    std::int64_t total_;
    double sloSeconds_;
    ZooServingConfig zoo_;
    int numExperts_;
    std::int64_t scheduled_ = 0;
};

// ----------------------------------------------------- multi-tenant

/**
 * N tenants, each an independent chained open-loop stream with its own
 * router (rotated popularity order), rate share, request shape, SLO,
 * and optional conversational sessions. All streams draw against one
 * shared request budget, so the run emits exactly
 * cfg.streamRequests requests across first turns and follow-ups.
 */
class MultiTenantWorkload : public WorkloadModel
{
  public:
    MultiTenantWorkload(const ServingConfig &cfg, const RateShape &shape)
        : numExperts_(cfg.numExperts), total_(cfg.streamRequests),
          zoo_(cfg.zoo)
    {
        std::vector<TenantSpec> specs = cfg.workload.tenantSpecs.empty()
            ? buildTenantMix(cfg)
            : cfg.workload.tenantSpecs;

        double shareSum = 0.0;
        for (const TenantSpec &spec : specs)
            shareSum += spec.rateShare;

        tenants_.reserve(specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            std::uint64_t tseed = mix64(
                cfg.seed + 0x9e3779b97f4a7c15ULL *
                               static_cast<std::uint64_t>(i + 1));
            Tenant t{specs[i],
                     Router(cfg.numExperts, cfg.routing, tseed,
                            specs[i].zipfS),
                     sim::Rng(tseed ^ kArrivalSalt),
                     sim::Rng(tseed ^ 0x5e551055e551055eULL),
                     cfg.arrivalRatePerSec * specs[i].rateShare / shareSum,
                     0.0};
            // The driver-level shape (cluster diurnal) modulates every
            // tenant on top of its own shape; compose by layering the
            // driver diurnal when the tenant has none.
            if (t.spec.shape.diurnalAmplitude == 0.0 &&
                shape.diurnalAmplitude > 0.0) {
                t.spec.shape.diurnalAmplitude = shape.diurnalAmplitude;
                t.spec.shape.diurnalPeriodSeconds =
                    shape.diurnalPeriodSeconds;
            }
            if (t.spec.shape.burstFactor == 1.0 &&
                shape.burstFactor > 1.0) {
                t.spec.shape.burstFactor = shape.burstFactor;
                t.spec.shape.burstEverySeconds = shape.burstEverySeconds;
                t.spec.shape.burstSeconds = shape.burstSeconds;
            }
            tenants_.push_back(std::move(t));
        }
    }

    void
    start() override
    {
        for (std::size_t i = 0; i < tenants_.size(); ++i)
            scheduleNext(static_cast<int>(i));
    }

    void
    onRequestComplete(const TrafficRequest &request) override
    {
        maybeFollowUp(request);
    }

    void
    onRequestShed(const TrafficRequest &request) override
    {
        // A shed turn ends its session: the simulated user gave up.
        (void)request;
    }

    std::int64_t plannedRequests() const override { return total_; }

    void setRateFactor(double factor) override { factor_ = factor; }

  private:
    struct Tenant
    {
        TenantSpec spec;
        Router router;
        sim::Rng arrivals; ///< inter-arrival gaps only
        sim::Rng draws;    ///< lengths, session coin flips, think times
        double rate;
        double arrivalT;
    };

    void
    scheduleNext(int ti)
    {
        if (scheduled_ >= total_)
            return;
        ++scheduled_;
        Tenant &t = tenants_[static_cast<std::size_t>(ti)];
        double rate =
            t.spec.shape.instantaneous(t.rate, t.arrivalT) * factor_;
        t.arrivalT += t.arrivals.exponential(1.0 / rate);
        eq().schedule(sim::fromSeconds(t.arrivalT),
                      [this, ti]() {
                          scheduleNext(ti);
                          emitTurn(ti, -1, 0, -1);
                      },
                      "coe.arrival");
    }

    /**
     * Emit one turn for tenant @p ti. @p expert < 0 routes a fresh
     * prompt (and opens a session when the tenant converses);
     * otherwise the turn reuses the session's expert.
     */
    void
    emitTurn(int ti, int session, int turn, int expert)
    {
        Tenant &t = tenants_[static_cast<std::size_t>(ti)];
        TrafficRequest r;
        r.tenant = ti;
        if (expert < 0) {
            // Churn applies only to fresh routes; session follow-ups
            // deliberately stick to their established adapter.
            r.expert = applyZooChurn(
                zoo_, numExperts_, sim::toSeconds(eq().now()),
                (t.router.route() + t.spec.expertOffset) % numExperts_);
            r.session = t.spec.sessionFollowProb > 0.0 ? nextSession_++
                                                       : -1;
            r.turn = 0;
        } else {
            r.expert = expert;
            r.session = session;
            r.turn = turn;
        }
        r.promptLen = t.spec.promptLen;
        if (t.spec.minOutputTokens > 0) {
            int span = t.spec.maxOutputTokens - t.spec.minOutputTokens;
            r.outputTokens = t.spec.minOutputTokens +
                static_cast<int>(t.draws.uniformInt(
                    static_cast<std::uint64_t>(span) + 1));
        }
        r.priority = t.spec.priority;
        r.deadlineSeconds = t.spec.sloSeconds;
        emit(r);
    }

    void
    maybeFollowUp(const TrafficRequest &request)
    {
        if (request.session < 0)
            return;
        Tenant &t = tenants_[static_cast<std::size_t>(request.tenant)];
        if (request.turn + 1 >= t.spec.sessionMaxTurns)
            return;
        if (t.draws.uniformDouble() >= t.spec.sessionFollowProb)
            return;
        if (scheduled_ >= total_)
            return;
        ++scheduled_;
        int ti = request.tenant;
        int session = request.session;
        int turn = request.turn + 1;
        int expert = request.expert;
        sim::Tick think = sim::fromSeconds(
            t.draws.exponential(t.spec.thinkMeanSeconds));
        eq().scheduleIn(think,
                        [this, ti, session, turn, expert]() {
                            emitTurn(ti, session, turn, expert);
                        },
                        "coe.session_turn");
    }

    int numExperts_;
    std::int64_t total_;
    ZooServingConfig zoo_;
    std::vector<Tenant> tenants_;
    std::int64_t scheduled_ = 0;
    int nextSession_ = 0;
    double factor_ = 1.0;
};

// ---------------------------------------------------- trace replay

/**
 * Re-run a recorded request stream: every entry is emitted at its
 * exact recorded tick, chained (entry i schedules entry i+1 before
 * emitting) so the event-creation order matches a live open-loop run
 * and replaying a recording reproduces its metrics bit-identically.
 */
class TraceReplayWorkload : public WorkloadModel
{
  public:
    /**
     * @param slo_override when > 0, replaces every replayed request's
     * recorded deadline — "same traffic, different SLO" comparisons.
     * 0 keeps the recorded deadlines (bit-faithful replay).
     */
    TraceReplayWorkload(
        std::shared_ptr<const std::vector<TraceEntry>> entries,
        double slo_override)
        : entries_(std::move(entries)), sloOverride_(slo_override)
    {
    }

    void
    start() override
    {
        if (!entries_->empty())
            scheduleEntry(0);
    }

    std::int64_t
    plannedRequests() const override
    {
        return static_cast<std::int64_t>(entries_->size());
    }

  private:
    void
    scheduleEntry(std::size_t i)
    {
        const std::vector<TraceEntry> &e = *entries_;
        eq().schedule(e[i].tick,
                      [this, i]() {
                          if (i + 1 < entries_->size())
                              scheduleEntry(i + 1);
                          // emit() re-assigns ids from its own counter;
                          // loadTrace validated the recorded ids are
                          // 0..N-1 in order, so they coincide.
                          TrafficRequest r = (*entries_)[i].request;
                          if (sloOverride_ > 0.0)
                              r.deadlineSeconds = sloOverride_;
                          emit(r);
                      },
                      "coe.arrival");
    }

    /** Shared, immutable: a sweep parses once for every point. */
    std::shared_ptr<const std::vector<TraceEntry>> entries_;
    double sloOverride_;
};

} // namespace

// -------------------------------------------------- tenant mix

std::vector<TenantSpec>
buildTenantMix(const ServingConfig &cfg)
{
    const WorkloadConfig &w = cfg.workload;
    int tenants = std::max(1, w.tenants);
    std::vector<TenantSpec> out;
    out.reserve(static_cast<std::size_t>(tenants));
    for (int i = 0; i < tenants; ++i) {
        TenantSpec t;
        t.name = "tenant" + std::to_string(i);
        // Tenant sizes follow their own popularity curve: tenant 0 is
        // the whale, the tail thins as 1/(i+1).
        t.rateShare = 1.0 / static_cast<double>(1 + i);
        t.zipfS = cfg.zipfS;
        // Rotate each tenant's popularity order so their hot expert
        // sets differ — the cache sees the union of N skews, not one.
        t.expertOffset = static_cast<int>(
            (static_cast<long long>(i) * cfg.numExperts) / tenants);
        // Alternate short-prompt (chat) and full-prompt tenants.
        t.promptLen = (i % 2 == 1) ? std::max(1, cfg.promptLen / 2) : 0;
        t.minOutputTokens = std::max(1, cfg.outputTokens / 2);
        t.maxOutputTokens = cfg.outputTokens + cfg.outputTokens / 2;
        t.priority = i % 3;
        t.sloSeconds = w.sloSeconds;
        t.sessionFollowProb = w.sessionFollowProb;
        t.sessionMaxTurns = w.sessionMaxTurns;
        t.thinkMeanSeconds = w.sessionThinkSeconds;
        t.shape = w.shape;
        out.push_back(std::move(t));
    }
    return out;
}

// ------------------------------------------------------- trace IO

namespace {

const util::JsonlFormat kTraceFormat{"trace", "trace",
                                     "corrupt or truncated trace?",
                                     "sn40l_trace", "requests"};

} // namespace

void
writeTrace(const std::string &path, const std::vector<TraceEntry> &entries)
{
    util::writeJsonl(kTraceFormat, path, entries.size(),
                     [&](util::JsonWriter &w, std::size_t i) {
                         const TrafficRequest &r = entries[i].request;
                         w.field("id", r.id)
                             .field("tick", entries[i].tick)
                             .field("tenant", r.tenant)
                             .field("expert", r.expert)
                             .field("session", r.session)
                             .field("turn", r.turn)
                             .field("prompt", r.promptLen)
                             .field("tokens", r.outputTokens)
                             .field("prio", r.priority)
                             .field("deadline", r.deadlineSeconds);
                     });
}

std::vector<TraceEntry>
loadTrace(const std::string &path)
{
    std::vector<TraceEntry> entries;
    sim::Tick prevTick = -1;
    auto header = [&](util::JsonLineParser &h, long long requests) {
        if (requests <= 0)
            h.die("trace declares no requests");
        entries.reserve(static_cast<std::size_t>(requests));
    };
    auto record = [&](util::JsonLineParser &p, long long i) {
        TraceEntry e;
        p.lit("{");
        e.request.id = static_cast<int>(p.integer("id"));
        p.lit(",");
        e.tick = p.integer("tick");
        p.lit(",");
        e.request.tenant = static_cast<int>(p.integer("tenant"));
        p.lit(",");
        e.request.expert = static_cast<int>(p.integer("expert"));
        p.lit(",");
        e.request.session = static_cast<int>(p.integer("session"));
        p.lit(",");
        e.request.turn = static_cast<int>(p.integer("turn"));
        p.lit(",");
        e.request.promptLen = static_cast<int>(p.integer("prompt"));
        p.lit(",");
        e.request.outputTokens = static_cast<int>(p.integer("tokens"));
        p.lit(",");
        e.request.priority = static_cast<int>(p.integer("prio"));
        p.lit(",");
        e.request.deadlineSeconds = p.number("deadline");
        p.finish();

        if (e.request.id != static_cast<int>(i))
            p.die("ids must be sequential from 0 (got " +
                  std::to_string(e.request.id) + ", expected " +
                  std::to_string(i) + ")");
        if (e.tick < 0 || e.tick < prevTick)
            p.die("arrival ticks must be non-negative and "
                  "non-decreasing");
        if (e.request.expert < 0 || e.request.tenant < 0 ||
            e.request.turn < 0 || e.request.session < -1 ||
            e.request.promptLen < 0 || e.request.outputTokens < 0 ||
            e.request.priority < 0 || e.request.deadlineSeconds < 0.0)
            p.die("negative field value");
        prevTick = e.tick;
        entries.push_back(e);
    };
    util::readJsonl(kTraceFormat, path, header, record);
    return entries;
}

// ------------------------------------------------------ validation

void
validateWorkloadConfig(const ServingConfig &cfg)
{
    const WorkloadConfig &w = cfg.workload;
    if (w.tenants < 1)
        sim::fatal("WorkloadConfig: tenants (--tenants) must be at least "
                   "1, got " + std::to_string(w.tenants));
    // NaN fails every comparison below, so each check is written as
    // "not (valid)".
    if (!(std::isfinite(w.sloSeconds) && w.sloSeconds >= 0.0))
        sim::fatal("WorkloadConfig: sloSeconds (--slo-ms) must be finite "
                   "and non-negative, got " +
                   std::to_string(w.sloSeconds));
    if (!(w.sessionFollowProb >= 0.0 && w.sessionFollowProb <= 1.0))
        sim::fatal("WorkloadConfig: sessionFollowProb (--session-prob) "
                   "must be in [0, 1]");
    if (w.sessionMaxTurns < 1)
        sim::fatal("WorkloadConfig: sessionMaxTurns (--session-turns) "
                   "must be at least 1");
    sim::requireTickSeconds(
        w.sessionThinkSeconds,
        "WorkloadConfig: sessionThinkSeconds (--session-think)");
    validateShape(w.shape, "WorkloadConfig");
    if (w.multiTenant() && cfg.arrival == ArrivalProcess::ClosedLoop)
        sim::fatal("WorkloadConfig: tenant mixes and sessions are "
                   "open-loop workloads; they cannot be combined with a "
                   "closed loop");
    if (w.shape.burstFactor > 1.0 &&
        cfg.arrival == ArrivalProcess::ClosedLoop)
        sim::fatal("WorkloadConfig: burstFactor (--burst-factor) shapes "
                   "open-loop arrivals; it cannot be combined with a "
                   "closed loop");
    for (const TenantSpec &t : w.tenantSpecs) {
        if (!(std::isfinite(t.rateShare) && t.rateShare > 0.0))
            sim::fatal("TenantSpec " + t.name +
                       ": non-positive rate share");
        if (!(std::isfinite(t.zipfS) && t.zipfS > 0.0))
            sim::fatal("TenantSpec " + t.name + ": non-positive zipf "
                                                "skew");
        if (t.expertOffset < 0 || t.expertOffset >= cfg.numExperts)
            sim::fatal("TenantSpec " + t.name +
                       ": expert offset outside the expert pool");
        if (t.promptLen < 0 || t.minOutputTokens < 0 ||
            t.maxOutputTokens < t.minOutputTokens)
            sim::fatal("TenantSpec " + t.name +
                       ": malformed request-shape bounds");
        if (t.priority < 0)
            sim::fatal("TenantSpec " + t.name + ": negative priority");
        if (!(std::isfinite(t.sloSeconds) && t.sloSeconds >= 0.0))
            sim::fatal("TenantSpec " + t.name + ": negative SLO");
        if (!(t.sessionFollowProb >= 0.0 && t.sessionFollowProb <= 1.0))
            sim::fatal("TenantSpec " + t.name +
                       ": session follow probability outside [0, 1]");
        if (t.sessionMaxTurns < 1)
            sim::fatal("TenantSpec " + t.name +
                       ": sessions need at least one turn");
        sim::requireTickSeconds(t.thinkMeanSeconds,
                                "TenantSpec " + t.name +
                                    ": thinkMeanSeconds");
        validateShape(t.shape, "TenantSpec " + t.name);
    }
}

// --------------------------------------------------------- factory

std::unique_ptr<WorkloadModel>
makeWorkloadModel(const ServingConfig &cfg, const RateShape &rate_shape)
{
    if (cfg.workload.traceEntries)
        return std::make_unique<TraceReplayWorkload>(
            cfg.workload.traceEntries, cfg.workload.sloSeconds);
    if (!cfg.workload.traceIn.empty())
        return std::make_unique<TraceReplayWorkload>(
            std::make_shared<const std::vector<TraceEntry>>(
                loadTrace(cfg.workload.traceIn)),
            cfg.workload.sloSeconds);

    // Compose the driver-level shape (the cluster's diurnal ramp) over
    // the workload's own: the driver fields win where both are set.
    RateShape shape = cfg.workload.shape;
    if (rate_shape.diurnalAmplitude > 0.0) {
        shape.diurnalAmplitude = rate_shape.diurnalAmplitude;
        shape.diurnalPeriodSeconds = rate_shape.diurnalPeriodSeconds;
    }
    if (rate_shape.burstFactor > 1.0) {
        shape.burstFactor = rate_shape.burstFactor;
        shape.burstEverySeconds = rate_shape.burstEverySeconds;
        shape.burstSeconds = rate_shape.burstSeconds;
    }

    if (cfg.workload.multiTenant())
        return std::make_unique<MultiTenantWorkload>(cfg, shape);
    if (cfg.arrival == ArrivalProcess::ClosedLoop)
        return std::make_unique<ClosedLoopWorkload>(cfg);
    return std::make_unique<OpenLoopWorkload>(cfg, shape);
}

} // namespace sn40l::coe

#include "coe/faults.h"

#include <cmath>

#include "coe/cluster.h"
#include "sim/log.h"
#include "sim/ticks.h"
#include "util/json.h"

namespace sn40l::coe {

// ----------------------------------------------------- name tables

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::NodeCrash:
        return "crash";
    case FaultKind::DmaStall:
        return "dma-stall";
    case FaultKind::Straggler:
        return "straggler";
    case FaultKind::FlakyNode:
        return "flaky";
    case FaultKind::LinkDegrade:
        return "link-degrade";
    }
    return "?";
}

FaultKind
faultKindFromName(const std::string &name)
{
    if (name == "crash")
        return FaultKind::NodeCrash;
    if (name == "dma-stall")
        return FaultKind::DmaStall;
    if (name == "straggler")
        return FaultKind::Straggler;
    if (name == "flaky")
        return FaultKind::FlakyNode;
    if (name == "link-degrade")
        return FaultKind::LinkDegrade;
    sim::fatal("unknown fault kind '" + name +
               "' (crash, dma-stall, straggler, flaky, link-degrade)");
}

// ------------------------------------------------------ validation

void
validateFaultSchedule(const std::vector<FaultEvent> &schedule, int nodes)
{
    double prev = 0.0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const FaultEvent &e = schedule[i];
        std::string tag =
            "fault schedule event " + std::to_string(i) + ": ";
        if (e.atSeconds < 0.0)
            sim::fatal(tag + "negative fire time");
        if (e.atSeconds < prev)
            sim::fatal(tag + "fire times must be non-decreasing");
        if (e.node < 0 || (nodes > 0 && e.node >= nodes))
            sim::fatal(tag + "node " + std::to_string(e.node) +
                       " outside the cluster");
        if (e.durationSeconds < 0.0)
            sim::fatal(tag + "negative duration");
        switch (e.kind) {
        case FaultKind::NodeCrash:
            break;
        case FaultKind::DmaStall:
        case FaultKind::Straggler:
        case FaultKind::LinkDegrade:
            if (e.factor < 1.0)
                sim::fatal(tag + "stretch factor must be >= 1");
            break;
        case FaultKind::FlakyNode:
            if (e.factor < 0.0 || e.factor > 1.0)
                sim::fatal(tag +
                           "failure probability outside [0, 1]");
            break;
        }
        prev = e.atSeconds;
    }
}

void
validateFaultPolicy(const FaultPolicyConfig &policy)
{
    if (policy.retryMax < 0)
        sim::fatal("FaultPolicyConfig: retryMax (--retry-max) must be "
                   "non-negative");
    sim::requireTickSeconds(
        policy.retryBackoffSeconds,
        "FaultPolicyConfig: retryBackoffSeconds (--retry-backoff-ms)");
    if (policy.retryBudget < -1)
        sim::fatal("FaultPolicyConfig: retryBudget (--retry-budget) must "
                   "be -1 (unbounded) or non-negative");
    if (!(std::isfinite(policy.hedgeThreshold) &&
          policy.hedgeThreshold > 0.0))
        sim::fatal("FaultPolicyConfig: hedgeThreshold (--hedge-threshold) "
                   "must be finite and positive");
    if (!(std::isfinite(policy.brownoutDepth) &&
          policy.brownoutDepth >= 0.0))
        sim::fatal("FaultPolicyConfig: brownoutDepth (--brownout-depth) "
                   "must be finite and non-negative, got " +
                   std::to_string(policy.brownoutDepth));
    if (policy.brownoutPriorityMax < 0)
        sim::fatal("FaultPolicyConfig: brownoutPriorityMax "
                   "(--brownout-prio) must be non-negative");
    if (policy.hedge || policy.brownoutDepth > 0.0)
        sim::requireTickSeconds(
            policy.policyTickSeconds,
            "FaultPolicyConfig: policyTickSeconds (--policy-tick-ms)",
            /*positive=*/true);
}

// -------------------------------------------------------- JSONL IO

namespace {

const util::JsonlFormat kFaultsFormat{"faults", "fault-schedule",
                                      "corrupt or truncated fault schedule?",
                                      "sn40l_faults", "events"};

} // namespace

void
writeFaultSchedule(const std::string &path,
                   const std::vector<FaultEvent> &schedule)
{
    validateFaultSchedule(schedule, 0);
    util::writeJsonl(kFaultsFormat, path, schedule.size(),
                     [&](util::JsonWriter &w, std::size_t i) {
                         const FaultEvent &e = schedule[i];
                         w.field("at", e.atSeconds)
                             .field("kind", faultKindName(e.kind))
                             .field("node", e.node)
                             .field("factor", e.factor)
                             .field("duration", e.durationSeconds);
                     });
}

std::vector<FaultEvent>
loadFaultSchedule(const std::string &path)
{
    std::vector<FaultEvent> schedule;
    double prev = 0.0;
    auto header = [&](util::JsonLineParser &h, long long events) {
        if (events < 0)
            h.die("negative event count");
        schedule.reserve(static_cast<std::size_t>(events));
    };
    auto record = [&](util::JsonLineParser &p, long long) {
        FaultEvent e;
        p.lit("{");
        e.atSeconds = p.number("at");
        p.lit(",");
        e.kind = [&p] {
            std::string kind = p.word("kind");
            if (kind != "crash" && kind != "dma-stall" &&
                kind != "straggler" && kind != "flaky" &&
                kind != "link-degrade")
                p.die("unknown fault kind '" + kind + "'");
            return faultKindFromName(kind);
        }();
        p.lit(",");
        e.node = static_cast<int>(p.integer("node"));
        p.lit(",");
        e.factor = p.number("factor");
        p.lit(",");
        e.durationSeconds = p.number("duration");
        p.finish();

        if (e.atSeconds < 0.0 || e.atSeconds < prev)
            p.die("fire times must be non-negative and "
                  "non-decreasing");
        if (e.node < 0 || e.durationSeconds < 0.0)
            p.die("negative field value");
        if ((e.kind == FaultKind::DmaStall ||
             e.kind == FaultKind::Straggler ||
             e.kind == FaultKind::LinkDegrade) &&
            e.factor < 1.0)
            p.die("stretch factor must be >= 1");
        if (e.kind == FaultKind::FlakyNode &&
            (e.factor < 0.0 || e.factor > 1.0))
            p.die("failure probability outside [0, 1]");
        prev = e.atSeconds;
        schedule.push_back(e);
    };
    util::readJsonl(kFaultsFormat, path, header, record);
    return schedule;
}

// ---------------------------------------------------- FaultInjector

FaultInjector::FaultInjector(
    ClusterSimulator &cluster,
    std::shared_ptr<const std::vector<FaultEvent>> schedule)
    : cluster_(cluster), schedule_(std::move(schedule))
{
}

void
FaultInjector::arm()
{
    if (!schedule_)
        return;
    sim::EventQueue &eq = cluster_.eventQueue();
    for (const FaultEvent &e : *schedule_) {
        eq.schedule(sim::fromSeconds(e.atSeconds),
                    [this, e] { fire(e); }, "faults.fire");
        if (e.durationSeconds > 0.0)
            eq.schedule(sim::fromSeconds(e.atSeconds + e.durationSeconds),
                        [this, e] { heal(e); }, "faults.heal");
    }
}

void
FaultInjector::fire(const FaultEvent &event)
{
    ++injected_;
    switch (event.kind) {
    case FaultKind::NodeCrash:
        cluster_.crashNode(event.node);
        break;
    case FaultKind::DmaStall:
        cluster_.setNodeDmaFactor(event.node, event.factor);
        break;
    case FaultKind::Straggler:
        cluster_.setNodeServiceFactor(event.node, event.factor);
        break;
    case FaultKind::FlakyNode:
        cluster_.setNodeFlakyProbability(event.node, event.factor);
        break;
    case FaultKind::LinkDegrade:
        cluster_.setNodeLinkFactor(event.node, event.factor);
        break;
    }
}

void
FaultInjector::heal(const FaultEvent &event)
{
    switch (event.kind) {
    case FaultKind::NodeCrash:
        cluster_.rejoinNode(event.node);
        break;
    case FaultKind::DmaStall:
        cluster_.setNodeDmaFactor(event.node, 1.0);
        break;
    case FaultKind::Straggler:
        cluster_.setNodeServiceFactor(event.node, 1.0);
        break;
    case FaultKind::FlakyNode:
        cluster_.setNodeFlakyProbability(event.node, 0.0);
        break;
    case FaultKind::LinkDegrade:
        cluster_.setNodeLinkFactor(event.node, 1.0);
        break;
    }
}

} // namespace sn40l::coe

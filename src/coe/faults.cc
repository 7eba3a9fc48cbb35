#include "coe/faults.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "coe/cluster.h"
#include "sim/log.h"
#include "sim/ticks.h"

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

/**
 * Strict field-by-field JSONL parser, the exact discipline of the
 * request-trace loader (workload.cc): the format is fixed-order and
 * machine-written, so any deviation is corruption and dies with a
 * FatalError naming the file, line, and expectation.
 */
struct FaultLineParser
{
    const std::string &path;
    std::size_t lineNo;
    const std::string &line;
    std::size_t pos = 0;

    [[noreturn]] void
    die(const std::string &why) const
    {
        sim::fatal("faults " + path + " line " +
                   std::to_string(lineNo) + ": " + why +
                   " (corrupt or truncated fault schedule?)");
    }

    void
    lit(const char *text)
    {
        std::size_t n = std::string(text).size();
        if (line.compare(pos, n, text) != 0)
            die("expected '" + std::string(text) + "' at column " +
                std::to_string(pos + 1));
        pos += n;
    }

    long long
    integer(const char *key)
    {
        lit("\"");
        lit(key);
        lit("\":");
        const char *begin = line.c_str() + pos;
        char *end = nullptr;
        long long v = std::strtoll(begin, &end, 10);
        if (end == begin)
            die(std::string("malformed integer for key '") + key +
                "'");
        pos += static_cast<std::size_t>(end - begin);
        return v;
    }

    double
    number(const char *key)
    {
        lit("\"");
        lit(key);
        lit("\":");
        const char *begin = line.c_str() + pos;
        char *end = nullptr;
        double v = std::strtod(begin, &end);
        if (end == begin)
            die(std::string("malformed number for key '") + key +
                "'");
        pos += static_cast<std::size_t>(end - begin);
        return v;
    }

    std::string
    word(const char *key)
    {
        lit("\"");
        lit(key);
        lit("\":\"");
        std::size_t close = line.find('"', pos);
        if (close == std::string::npos)
            die(std::string("unterminated string for key '") + key +
                "'");
        std::string v = line.substr(pos, close - pos);
        pos = close + 1;
        return v;
    }

    void
    finish()
    {
        lit("}");
        if (pos != line.size())
            die("trailing characters after '}'");
    }
};

} // namespace

void
writeFaultSchedule(const std::string &path,
                   const std::vector<FaultEvent> &schedule)
{
    validateFaultSchedule(schedule, 0);
    std::ofstream out(path);
    if (!out)
        sim::fatal("faults: cannot write " + path);
    out << "{\"sn40l_faults\":1,\"events\":" << schedule.size()
        << "}\n";
    for (const FaultEvent &e : schedule) {
        std::ostringstream nums;
        nums.precision(17);
        nums << "\"at\":" << e.atSeconds << ",\"kind\":\""
             << faultKindName(e.kind) << "\",\"node\":" << e.node
             << ",\"factor\":" << e.factor
             << ",\"duration\":" << e.durationSeconds;
        out << "{" << nums.str() << "}\n";
    }
    if (!out)
        sim::fatal("faults: write to " + path + " failed");
}

std::vector<FaultEvent>
loadFaultSchedule(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        sim::fatal("faults: cannot open " + path);

    std::string line;
    if (!std::getline(in, line))
        sim::fatal("faults " + path + ": empty file (expected a "
                   "{\"sn40l_faults\":1,...} header)");
    FaultLineParser header{path, 1, line};
    header.lit("{");
    long long version = header.integer("sn40l_faults");
    if (version != 1)
        header.die("unsupported fault-schedule version " +
                   std::to_string(version));
    header.lit(",");
    long long events = header.integer("events");
    header.finish();
    if (events < 0)
        header.die("negative event count");

    std::vector<FaultEvent> schedule;
    schedule.reserve(static_cast<std::size_t>(events));
    double prev = 0.0;
    for (long long i = 0; i < events; ++i) {
        if (!std::getline(in, line))
            sim::fatal("faults " + path + ": truncated after " +
                       std::to_string(i) + " of " +
                       std::to_string(events) + " events");
        FaultLineParser p{path, static_cast<std::size_t>(i + 2),
                          line};
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
    }
    // Anything after the promised events is corruption; scan every
    // remaining line (tolerating pure trailing newlines) so garbage
    // cannot hide behind a blank line.
    while (std::getline(in, line)) {
        if (!line.empty())
            sim::fatal("faults " + path + ": trailing garbage after " +
                       std::to_string(events) + " events");
    }
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

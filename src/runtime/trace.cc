#include "runtime/trace.h"

#include <map>

#include "util/json.h"

namespace sn40l::runtime {

void
TraceWriter::record(const std::string &lane, const std::string &name,
                    sim::Tick start, sim::Tick duration)
{
    events_.push_back({lane, name, start, duration});
}

void
TraceWriter::writeJson(std::ostream &os) const
{
    // Assign a stable tid per lane.
    std::map<std::string, int> lane_tid;
    for (const Event &e : events_) {
        if (!lane_tid.count(e.lane)) {
            int tid = static_cast<int>(lane_tid.size());
            lane_tid[e.lane] = tid;
        }
    }

    // Compact JSON; ts/dur in microseconds at 17 significant digits,
    // so a minutes-long timeline keeps sub-nanosecond slices exact.
    util::JsonWriter w(os);
    w.beginObject().key("traceEvents").beginArray();
    for (const auto &kv : lane_tid) {
        w.beginObject()
            .field("name", "thread_name")
            .field("ph", "M")
            .field("pid", 1)
            .field("tid", kv.second)
            .key("args")
            .beginObject()
            .field("name", kv.first)
            .endObject()
            .endObject();
    }
    for (const Event &e : events_) {
        w.beginObject()
            .field("name", e.name)
            .field("ph", "X")
            .field("pid", 1)
            .field("tid", lane_tid.at(e.lane))
            .field("ts", sim::toUs(e.start))
            .field("dur", sim::toUs(e.duration))
            .endObject();
    }
    w.endArray().endObject();
}

} // namespace sn40l::runtime

/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is a named host-time interval with a parent: the benchmark
 * opens one around every call it makes into a simulator layer, and
 * nested calls become children. Spans stay in memory while the run
 * executes and are written once at the end as Chrome/Perfetto
 * trace-event JSON ("X" events; args carry the span id, the parent id
 * and how many layer calls were made directly under the span, sampled
 * or not).
 *
 * Replays call one layer function hundreds of thousands of times, so
 * per-call spans are sampled: each open span keeps the first
 * kCallSpansPerParent calls as child spans and only counts the rest.
 * Unsampled calls run with no timer around them, so a replay loop's
 * total wall time divided by its call count stays free of timer cost.
 */

#ifndef SN40L_PERFBENCH_SPANS_H
#define SN40L_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

class SpanRecorder
{
  public:
    static constexpr std::int64_t kCallSpansPerParent = 256;

    SpanRecorder() : origin_(Clock::now()) {}

    /** Open a span under the innermost open span; returns its id. */
    int
    open(const char *name)
    {
        int id = static_cast<int>(spans_.size());
        int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(Span{name, parent, nowNs(), -1, 0});
        stack_.push_back(id);
        return id;
    }

    void
    close(int id)
    {
        spans_[static_cast<std::size_t>(id)].endNs = nowNs();
        if (!stack_.empty() && stack_.back() == id)
            stack_.pop_back();
    }

    /**
     * Run @p fn as one call named @p name under the innermost open
     * span: timed as a child span while the parent's sample budget
     * lasts, otherwise only counted.
     */
    template <typename Fn>
    void
    call(const char *name, Fn &&fn)
    {
        Span &parent = spans_[static_cast<std::size_t>(stack_.back())];
        ++parent.calls;
        if (parent.sampledCalls >= kCallSpansPerParent) {
            fn();
            return;
        }
        ++parent.sampledCalls;
        int id = open(name);
        fn();
        close(id);
    }

    std::size_t size() const { return spans_.size(); }

    /** Write every span as trace-event JSON to @p path. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        sn40l::util::JsonWriter w(out);
        w.beginObject().key("traceEvents").beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::int64_t end = s.endNs < 0 ? s.startNs : s.endNs;
            w.beginObject()
                .field("name", s.name)
                .field("ph", "X")
                .field("ts", static_cast<double>(s.startNs) / 1e3)
                .field("dur", static_cast<double>(end - s.startNs) / 1e3)
                .field("pid", 1)
                .field("tid", 1)
                .key("args")
                .beginObject()
                .field("id", static_cast<std::int64_t>(i))
                .field("parent", s.parent)
                .field("calls", s.calls)
                .endObject()
                .endObject();
        }
        w.endArray().endObject();
        out << "\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        const char *name;
        int parent;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int64_t calls;
        std::int64_t sampledCalls = 0;
    };

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Opens a span on construction and closes it on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name)
        : rec_(rec), id_(rec.open(name))
    {
    }
    ~ScopedSpan() { rec_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    int id_;
};

} // namespace perfbench

#endif // SN40L_PERFBENCH_SPANS_H

/**
 * @file
 * Helpers shared by perf_gate and the benches that read a command
 * line: their flags (parsed by tools::FlagParser, so a bad value fails
 * naming the flag before anything runs), wall-clock timing, peak-RSS
 * readout, the in-memory trace the replaying ablations share, the
 * provenance stamp every BENCH_*.json opens with, and the minimal JSON
 * number lookup the CI floor gate uses. One copy, so portability fixes
 * (e.g. ru_maxrss units) apply to every bench.
 */

#ifndef SN40L_BENCH_PERF_COMMON_H
#define SN40L_BENCH_PERF_COMMON_H

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coe/serving.h"
#include "coe/workload.h"
#include "sim/event_queue.h"
#include "tools/flag_parser.h"
#include "util/json.h"

namespace sn40l::bench {

/**
 * Register a count flag such as --requests N: a whole number of at
 * least 1, written to @p count.
 */
inline void
addCountFlag(tools::FlagParser &p, const char *flag, int &count,
             std::string help)
{
    p.value(flag, "N", std::move(help),
            [&p, flag, &count](const std::string &v) {
                count = tools::parseInt(v);
                if (count < 1)
                    p.fail(std::string(flag) + " must be positive, got " +
                           v);
            });
}

/** The command line the self-checking ablations and perf_gate share. */
struct BenchArgs
{
    int requests = 0;     ///< the full-size default until parsed
    std::string jsonPath; ///< BENCH_<name>.json until parsed
    bool smoke = false;
};

/**
 * Register --smoke, --requests N and --json FILE. A --smoke run
 * without --requests runs @p smoke_requests requests.
 */
inline void
addBenchFlags(tools::FlagParser &p, BenchArgs &args, int smoke_requests)
{
    p.flag("--smoke",
           "CI-sized run: " + std::to_string(smoke_requests) +
               " requests unless --requests is given",
           [&args]() { args.smoke = true; });
    addCountFlag(p, "--requests", args.requests,
                 "requests to run (default " +
                     std::to_string(args.requests) + ")");
    p.value("--json", "FILE",
            "where to write the results (default " + args.jsonPath + ")",
            [&args](const std::string &v) { args.jsonPath = v; });
    p.check([&p, &args, smoke_requests] {
        if (args.smoke && !p.given("--requests"))
            args.requests = smoke_requests;
    });
}

/**
 * Commit hash of the working tree the harness ran from, or "unknown"
 * outside a git checkout. Every BENCH_*.json is stamped with this so
 * an artifact downloaded from CI (or found in a scratch directory)
 * identifies the code that produced its numbers.
 */
inline std::string
gitCommitHash()
{
    FILE *pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
    if (!pipe)
        return "unknown";
    char buf[64];
    std::string out;
    if (std::fgets(buf, sizeof buf, pipe))
        out = buf;
    ::pclose(pipe);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out.empty() ? "unknown" : out;
}

/** Current UTC time as ISO-8601 (e.g. "2024-05-01T12:34:56Z"). */
inline std::string
isoTimestampUtc()
{
    std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

inline double
wallSeconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

inline std::int64_t
peakRssBytes()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return static_cast<std::int64_t>(usage.ru_maxrss) * 1024; // Linux: KiB
}

/**
 * Record the open-loop arrival stream @p gen generates, in memory: the
 * same model and RNG draws as a --trace-out file, so every corner of
 * an ablation can replay identical traffic without touching disk.
 */
inline std::shared_ptr<const std::vector<coe::TraceEntry>>
recordTrace(const coe::ServingConfig &gen)
{
    sim::EventQueue eq;
    std::unique_ptr<coe::WorkloadModel> model = coe::makeWorkloadModel(gen);
    auto entries = std::make_shared<std::vector<coe::TraceEntry>>();
    model->bind(eq, [&](const coe::TrafficRequest &r) {
        entries->push_back({r, eq.now()});
    });
    model->start();
    eq.run(); // open loop: arrivals self-schedule
    return entries;
}

/**
 * Open a BENCH_*.json object with its provenance stamp: the bench,
 * the commit, the UTC time and the run mode. The bench's own keys
 * follow, "requests" first (writeBenchJson writes that one).
 */
inline util::JsonWriter &
beginBenchJson(util::JsonWriter &w, const char *bench, bool smoke)
{
    return w.beginObject()
        .field("bench", bench)
        .field("commit", gitCommitHash())
        .field("timestamp_utc", isoTimestampUtc())
        .field("mode", smoke ? "smoke" : "full");
}

/**
 * Write @p args.jsonPath: the provenance stamp, "requests", then the
 * keys @p body adds; then say so on stdout.
 */
template <typename Body>
void
writeBenchJson(const char *bench, const BenchArgs &args, Body body)
{
    std::ofstream out(args.jsonPath);
    if (!out)
        throw std::runtime_error("cannot write " + args.jsonPath);
    util::JsonWriter w(out, /*pretty=*/true);
    beginBenchJson(w, bench, args.smoke).field("requests", args.requests);
    body(w);
    w.endObject();
    out << "\n";
    std::cout << "wrote " << args.jsonPath << "\n";
}

/**
 * A small JSON file, read whole on construction so a missing file
 * fails before the caller runs anything, with a minimal "key": value
 * lookup. Every failure (no file, no key, no number after the key)
 * throws, naming the file.
 */
class JsonFile
{
  public:
    explicit JsonFile(std::string path) : path_(std::move(path))
    {
        std::ifstream in(path_);
        if (!in)
            throw std::runtime_error("cannot read " + path_);
        std::stringstream ss;
        ss << in.rdbuf();
        text_ = ss.str();
    }

    double
    number(const std::string &key) const
    {
        auto pos = text_.find("\"" + key + "\"");
        if (pos == std::string::npos)
            throw std::runtime_error("no \"" + key + "\" in " + path_);
        std::istringstream in(text_.substr(pos + key.size() + 2));
        char colon = 0;
        double value = 0.0;
        if (!(in >> colon >> value) || colon != ':')
            throw std::runtime_error("bad number for \"" + key + "\" in " +
                                     path_);
        return value;
    }

  private:
    std::string path_;
    std::string text_;
};

} // namespace sn40l::bench

#endif // SN40L_BENCH_PERF_COMMON_H

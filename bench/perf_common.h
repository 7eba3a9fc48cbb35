/**
 * @file
 * Helpers shared by perf_gate and the self-checking ablations:
 * wall-clock timing, peak-RSS readout, commit/timestamp stamps, and
 * the minimal JSON number extraction the CI floor gate uses. One copy,
 * so portability fixes (e.g. ru_maxrss units) apply to every bench.
 */

#ifndef SN40L_BENCH_PERF_COMMON_H
#define SN40L_BENCH_PERF_COMMON_H

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

namespace sn40l::bench {

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

/** Minimal parse of "key": value out of a small JSON file. */
inline double
jsonNumber(const char *prog, const std::string &path,
           const std::string &key)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << prog << ": cannot read " << path << "\n";
        std::exit(1);
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    std::string needle = "\"" + key + "\"";
    auto pos = text.find(needle);
    if (pos == std::string::npos) {
        std::cerr << prog << ": no \"" << key << "\" in " << path << "\n";
        std::exit(1);
    }
    pos = text.find(':', pos);
    return std::stod(text.substr(pos + 1));
}

} // namespace sn40l::bench

#endif // SN40L_BENCH_PERF_COMMON_H

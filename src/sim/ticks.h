/**
 * @file
 * Simulation time base.
 *
 * One tick is one picosecond. Picoseconds give enough resolution to
 * express sub-nanosecond link and SRAM latencies while still covering
 * multi-hour simulated spans in a signed 64-bit integer.
 */

#ifndef SN40L_SIM_TICKS_H
#define SN40L_SIM_TICKS_H

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "sim/log.h"

namespace sn40l::sim {

using Tick = std::int64_t;

/** Ticks per SI time unit. */
constexpr Tick kTicksPerPs = 1;
constexpr Tick kTicksPerNs = 1000LL;
constexpr Tick kTicksPerUs = 1000LL * kTicksPerNs;
constexpr Tick kTicksPerMs = 1000LL * kTicksPerUs;
constexpr Tick kTicksPerSec = 1000LL * kTicksPerMs;

/** Sentinel for "never" / unbounded run limits. */
constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

constexpr Tick fromPs(double ps) { return static_cast<Tick>(ps); }
constexpr Tick fromNs(double ns) { return static_cast<Tick>(ns * kTicksPerNs); }
constexpr Tick fromUs(double us) { return static_cast<Tick>(us * kTicksPerUs); }
constexpr Tick fromMs(double ms) { return static_cast<Tick>(ms * kTicksPerMs); }
constexpr Tick fromSeconds(double s) { return static_cast<Tick>(s * kTicksPerSec); }

constexpr double toNs(Tick t) { return static_cast<double>(t) / kTicksPerNs; }
constexpr double toUs(Tick t) { return static_cast<double>(t) / kTicksPerUs; }
constexpr double toMs(Tick t) { return static_cast<double>(t) / kTicksPerMs; }
constexpr double toSeconds(Tick t) { return static_cast<double>(t) / kTicksPerSec; }

/**
 * Time taken to move @p bytes at @p bytes_per_sec, as a tick count.
 * Rounds up so a nonzero transfer never takes zero time.
 */
constexpr Tick
transferTicks(double bytes, double bytes_per_sec)
{
    if (bytes <= 0.0 || bytes_per_sec <= 0.0)
        return 0;
    double seconds = bytes / bytes_per_sec;
    Tick t = static_cast<Tick>(seconds * kTicksPerSec);
    return t > 0 ? t : 1;
}

/**
 * Reject a configured duration of @p seconds that cannot become a Tick:
 * non-finite, negative (or zero when @p positive), or at or beyond
 * toSeconds(kMaxTick), about 9.2e6 s. @p what names the field, as in
 * "ServingConfig: thinkSeconds (--think)"; the FatalError message
 * prints the rejected value with %g.
 */
inline void
requireTickSeconds(double seconds, const std::string &what,
                   bool positive = false)
{
    // Written so NaN fails too: every comparison with NaN is false.
    if ((positive ? seconds > 0.0 : seconds >= 0.0) &&
        seconds < toSeconds(kMaxTick))
        return;
    char got[32];
    std::snprintf(got, sizeof got, "%g", seconds);
    fatal(what + " must be " + (positive ? "positive" : "non-negative") +
          " and within the Tick range (< 9.2e6 s), got " + got);
}

} // namespace sn40l::sim

#endif // SN40L_SIM_TICKS_H

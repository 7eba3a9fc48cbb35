/**
 * @file
 * Logging and error reporting, following the gem5 panic/fatal split:
 *
 *  - panic():  an internal simulator invariant was violated (a bug in
 *              this library). Throws SimPanic.
 *  - fatal():  the simulation cannot continue because of a user error
 *              (bad configuration, impossible parameters). Throws
 *              FatalError.
 *
 * Both throw instead of aborting so that library users — and the test
 * suite — can observe and recover from failures.
 */

#ifndef SN40L_SIM_LOG_H
#define SN40L_SIM_LOG_H

#include <sstream>
#include <stdexcept>
#include <string>

namespace sn40l::sim {

/** Raised by panic(): an internal invariant was violated. */
class SimPanic : public std::logic_error {
  public:
    explicit SimPanic(const std::string &msg) : std::logic_error(msg) {}
};

/** Raised by fatal(): a user/configuration error. */
class FatalError : public std::runtime_error {
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

[[noreturn]] void panic(const std::string &msg);
[[noreturn]] void fatal(const std::string &msg);

/** Severity levels for the optional diagnostic log. */
enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Quiet = 3 };

/** Set the global diagnostic log threshold (default: Quiet). */
void setLogLevel(LogLevel level);
LogLevel logLevel();

/** Emit a message if @p level passes the global threshold. */
void logMessage(LogLevel level, const std::string &component,
                const std::string &msg);

inline void
logDebug(const std::string &component, const std::string &msg)
{
    logMessage(LogLevel::Debug, component, msg);
}

inline void
logInfo(const std::string &component, const std::string &msg)
{
    logMessage(LogLevel::Info, component, msg);
}

inline void
logWarn(const std::string &component, const std::string &msg)
{
    logMessage(LogLevel::Warn, component, msg);
}

/**
 * Assert a simulator invariant; throws SimPanic with @p msg on failure.
 * Always checked (not compiled out), since model correctness depends
 * on these invariants holding in release builds too. The message is a
 * literal, so a passing check (some run once per request) builds no
 * string.
 */
inline void
simAssert(bool condition, const char *msg)
{
    if (!condition)
        panic(msg);
}

} // namespace sn40l::sim

#endif // SN40L_SIM_LOG_H

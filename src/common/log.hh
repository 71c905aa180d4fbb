/**
 * @file
 * Logging and error-reporting helpers in the gem5 tradition.
 *
 * fatal() terminates due to user error (bad configuration, invalid
 * arguments); panic() terminates due to an internal invariant violation
 * (a bug in this library). warn()/inform() report but never terminate.
 */

#ifndef MNOC_COMMON_LOG_HH
#define MNOC_COMMON_LOG_HH

#include <atomic>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/knobs.hh"

namespace mnoc {

/**
 * Verbosity threshold for the non-fatal log helpers, from the
 * MNOC_LOG_LEVEL knob (common/knobs.hh): "quiet" silences warn() and
 * inform(), "warn" silences only inform(), "info" (the default)
 * prints both; any other value is a fatal configuration error.
 * fatal()/panic() are never suppressed.  The enum values are the
 * knob's parsed number.
 */
enum class LogLevel
{
    Quiet = 0,
    Warn = 1,
    Info = 2,
};

namespace log_detail {

inline std::atomic<int> &
levelFlag()
{
    static std::atomic<int> level(
        static_cast<int>(readKnob("MNOC_LOG_LEVEL").number));
    return level;
}

inline std::atomic<std::uint64_t> &
suppressedWarnings()
{
    static std::atomic<std::uint64_t> count{0};
    return count;
}

} // namespace log_detail

/** Current verbosity threshold. */
inline LogLevel
logLevel()
{
    return static_cast<LogLevel>(
        log_detail::levelFlag().load(std::memory_order_relaxed));
}

/** Override the MNOC_LOG_LEVEL threshold (tests, `mnocpt stats`). */
inline void
setLogLevel(LogLevel level)
{
    log_detail::levelFlag().store(static_cast<int>(level),
                                  std::memory_order_relaxed);
}

/** How many warn() calls were swallowed by a quiet log level; let
 *  `mnocpt stats` reveal that silence was not the same as health. */
inline std::uint64_t
suppressedWarningCount()
{
    return log_detail::suppressedWarnings().load(
        std::memory_order_relaxed);
}

/** Exception thrown by fatal(): the caller supplied an invalid request. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error("fatal: " + msg)
    {}
};

/** Exception thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error("panic: " + msg)
    {}
};

/**
 * Report an unrecoverable user-level error.
 *
 * @param msg Description of the invalid request.
 * @throws FatalError always.
 */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

/**
 * Report an internal invariant violation (a library bug).
 *
 * @param msg Description of the violated invariant.
 * @throws PanicError always.
 */
[[noreturn]] inline void
panic(const std::string &msg)
{
    throw PanicError(msg);
}

/** Emit a non-fatal warning to stderr (counted, not printed, below
 *  LogLevel::Warn). */
inline void
warn(const std::string &msg)
{
    if (logLevel() < LogLevel::Warn) {
        log_detail::suppressedWarnings().fetch_add(
            1, std::memory_order_relaxed);
        return;
    }
    std::cerr << "warn: " << msg << "\n";
}

/** Emit an informational status message to stderr (dropped below
 *  LogLevel::Info). */
inline void
inform(const std::string &msg)
{
    if (logLevel() < LogLevel::Info)
        return;
    std::cerr << "info: " << msg << "\n";
}

/**
 * Check a user-facing precondition, calling fatal() on failure.
 *
 * The message is a literal, so a passing check allocates nothing.  A
 * message composed from run-time values is built only on failure:
 * write `if (cond) fatal(...)` instead (docs/conventions.md).
 *
 * @param cond Condition that must hold.
 * @param msg Message used when the condition fails.
 */
inline void
fatalIf(bool cond, const char *msg)
{
    if (cond)
        fatal(msg);
}

/**
 * Eager form kept only for perfbench/trace_pass.cc, which composes one
 * usage message before its check; it allocates on every call.  Use
 * `if (cond) fatal(...)` in new code.
 */
[[deprecated("compose the message only on failure: "
             "if (cond) fatal(...)")]] inline void
fatalIf(bool cond, const std::string &msg)
{
    if (cond)
        fatal(msg);
}

/**
 * Check an internal invariant, calling panic() on failure.
 *
 * The message is a literal, so a passing check allocates nothing.  A
 * message composed from run-time values is built only on failure:
 * write `if (cond) panic(...)` instead (docs/conventions.md).
 *
 * @param cond Condition that must hold for the library to be correct.
 * @param msg Message used when the condition fails.
 */
inline void
panicIf(bool cond, const char *msg)
{
    if (cond)
        panic(msg);
}

} // namespace mnoc

#endif // MNOC_COMMON_LOG_HH

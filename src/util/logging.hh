/**
 * @file
 * Status/error reporting helpers in the gem5 tradition.
 *
 * `inform`/`warn` report conditions without stopping the run;
 * `fatal` terminates on user error (bad configuration, bad input);
 * `panic` aborts on internal invariant violations (library bugs).
 */

#ifndef RLR_UTIL_LOGGING_HH
#define RLR_UTIL_LOGGING_HH

#include <cstdlib>
#include <iostream>
#include <source_location>
#include <string>
#include <string_view>

#include "util/format.hh"

namespace rlr::util
{

/** Severity of a log message. */
enum class LogLevel { Info, Warn, Fatal, Panic };

/**
 * Print a message to stderr with its level prefix. Returns even
 * for Fatal/Panic; the callers below exit/abort after it.
 */
void logMessage(LogLevel level, std::string_view msg);

/**
 * Publish/refresh a single sticky stderr status line (the sweep
 * progress display). The line stays put while log messages flow:
 * logMessage erases it, prints the message, and repaints it,
 * so worker output never interleaves mid-line. Serialized with
 * logMessage by the same mutex.
 */
void setStatusLine(std::string line);

/** Erase the status line from the terminal and forget it. */
void clearStatusLine();

/** Finish the status line: leave it on screen, advance past it. */
void finishStatusLine();

/** Informational message for normal operation. */
template <typename... Args>
void
inform(std::string_view fmt, Args &&...args)
{
    logMessage(LogLevel::Info,
               format(fmt, std::forward<Args>(args)...));
}

/** Warning: something suspicious but survivable happened. */
template <typename... Args>
void
warn(std::string_view fmt, Args &&...args)
{
    logMessage(LogLevel::Warn,
               format(fmt, std::forward<Args>(args)...));
}

/** User-caused unrecoverable error; exits with status 1. */
template <typename... Args>
[[noreturn]] void
fatal(std::string_view fmt, Args &&...args)
{
    logMessage(LogLevel::Fatal,
               format(fmt, std::forward<Args>(args)...));
    std::exit(1);
}

/** Internal invariant violation; aborts (core dump friendly). */
template <typename... Args>
[[noreturn]] void
panic(std::string_view fmt, Args &&...args)
{
    logMessage(LogLevel::Panic,
               format(fmt, std::forward<Args>(args)...));
    std::abort();
}

/**
 * Cheap always-on assertion used at module boundaries.
 * Unlike assert(3) it survives NDEBUG builds.
 */
inline void
ensure(bool cond, std::string_view what,
       std::source_location loc = std::source_location::current())
{
    if (!cond) {
        logMessage(LogLevel::Panic,
                   format("{} ({}:{})", what, loc.file_name(),
                          loc.line()));
        std::abort();
    }
}

} // namespace rlr::util

#endif // RLR_UTIL_LOGGING_HH

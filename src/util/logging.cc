#include "util/logging.hh"

#include <mutex>

namespace rlr::util
{

namespace
{

/** Serializes every stderr write (messages and status line), so
 *  concurrent workers never interleave mid-line. */
std::mutex io_mutex;

/** The sticky progress line currently on screen ("" = none).
 *  Guarded by io_mutex. */
std::string status_line;

void
eraseStatusLocked()
{
    if (!status_line.empty())
        std::cerr << "\r\033[K";
}

void
paintStatusLocked()
{
    if (!status_line.empty())
        std::cerr << status_line << std::flush;
}

} // namespace

void
logMessage(LogLevel level, std::string_view msg)
{
    std::scoped_lock lock(io_mutex);
    eraseStatusLocked();
    switch (level) {
      case LogLevel::Info:
        std::cerr << "info: " << msg << '\n';
        break;
      case LogLevel::Warn:
        std::cerr << "warn: " << msg << '\n';
        break;
      case LogLevel::Fatal:
        std::cerr << "fatal: " << msg << '\n';
        break;
      case LogLevel::Panic:
        std::cerr << "panic: " << msg << '\n';
        break;
    }
    paintStatusLocked();
}

void
setStatusLine(std::string line)
{
    std::scoped_lock lock(io_mutex);
    eraseStatusLocked();
    status_line = std::move(line);
    paintStatusLocked();
}

void
clearStatusLine()
{
    std::scoped_lock lock(io_mutex);
    eraseStatusLocked();
    status_line.clear();
}

void
finishStatusLine()
{
    std::scoped_lock lock(io_mutex);
    if (status_line.empty())
        return;
    std::cerr << '\n';
    status_line.clear();
}

} // namespace rlr::util

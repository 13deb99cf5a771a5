#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace gpuperf {

namespace {
// Atomic so concurrent batch-analysis workers can log while another
// thread adjusts verbosity, without a data race.
std::atomic<LogLevel> g_level{LogLevel::Warn};
} // namespace

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data());
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    throw SimError(msg);
}

void
warn(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Warn)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Inform)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace gpuperf

/**
 * @file
 * Status-message and error-handling helpers.
 *
 * Follows the gem5 split between bugs and bad input: panic() (and
 * GPUPERF_ASSERT) is for internal invariant violations — a bug in the
 * library itself — and aborts; fatal() is for conditions caused by
 * the input (a bad GpuSpec, launch or kernel, invalid arguments) and
 * throws SimError, so one bad input fails its own request or batch
 * cell and the process keeps serving. warn()/inform() report
 * conditions without stopping the simulation.
 */

#ifndef GPUPERF_COMMON_LOGGING_H
#define GPUPERF_COMMON_LOGGING_H

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace gpuperf {

/** Verbosity levels for status messages. */
enum class LogLevel { Silent, Warn, Inform, Debug };

/** Set the global verbosity level (default: Warn). */
void setLogLevel(LogLevel level);

/** Current global verbosity level. */
LogLevel logLevel();

/**
 * Report an internal invariant violation and abort.
 * Use only for conditions that indicate a bug in this library.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** The error fatal() throws; what() is the formatted message. */
class SimError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Reject invalid input by throwing SimError with the formatted
 * message. Use for invalid configurations, launches, kernels or
 * arguments — never for internal invariants (see panic()).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report suspicious-but-survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operational status. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Format helper used by the logging functions (exposed for tests). */
std::string vformat(const char *fmt, va_list ap);

/**
 * Assert an internal invariant; calls panic() with location info on
 * failure. Active in all build types (unlike assert()).
 */
#define GPUPERF_ASSERT(cond, msg)                                          \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::gpuperf::panic("assertion '%s' failed at %s:%d: %s", #cond,  \
                             __FILE__, __LINE__, msg);                     \
        }                                                                  \
    } while (0)

} // namespace gpuperf

#endif // GPUPERF_COMMON_LOGGING_H

/**
 * @file
 * EXPECT_SIM_ERROR(statement, substring): @p statement must throw
 * gpuperf::SimError — what fatal() throws on invalid input — with
 * @p substring in its message. Any other exception fails the test as
 * an unexpected throw.
 */

#ifndef GPUPERF_TESTS_EXPECT_SIM_ERROR_H
#define GPUPERF_TESTS_EXPECT_SIM_ERROR_H

#include <gtest/gtest.h>

#include <string>

#include "common/logging.h"

namespace gpuperf {
namespace test_support {

/** The message of the SimError @p f throws, or a note that none was. */
template <class F>
std::string
simErrorOf(F &&f)
{
    try {
        f();
    } catch (const SimError &e) {
        return e.what();
    }
    return "(no SimError thrown)";
}

} // namespace test_support
} // namespace gpuperf

#define EXPECT_SIM_ERROR(statement, substring)                             \
    do {                                                                   \
        const std::string sim_error_message_ =                             \
            ::gpuperf::test_support::simErrorOf(                           \
                [&] { (void)(statement); });                               \
        EXPECT_NE(sim_error_message_.find(substring), std::string::npos)   \
            << "expected a SimError containing \"" << (substring)          \
            << "\", got: " << sim_error_message_;                          \
    } while (0)

#endif // GPUPERF_TESTS_EXPECT_SIM_ERROR_H

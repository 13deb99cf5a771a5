/**
 * @file
 * ScratchDir — a directory private to one test, for the suites that
 * need a store root or other files on disk.
 */

#ifndef GPUPERF_TESTS_SCRATCH_DIR_H
#define GPUPERF_TESTS_SCRATCH_DIR_H

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace gpuperf {

/**
 * <TempDir>/gpuperf-NAME-PID, emptied on construction (a reused pid's
 * leftovers must not hand a cold test a warm store) and removed again
 * when the guard goes out of scope, so a test run leaves nothing
 * behind. NAME must be unique among the guards one process holds at
 * a time.
 */
struct ScratchDir
{
    explicit ScratchDir(const std::string &name)
        : path(::testing::TempDir() + "gpuperf-" + name + "-" +
               std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string path;
};

} // namespace gpuperf

#endif // GPUPERF_TESTS_SCRATCH_DIR_H

/**
 * @file
 * ScratchDir — a directory private to one test, for the suites that
 * need a store root, a socket or other files on disk.
 */

#ifndef GPUPERF_TESTS_SCRATCH_DIR_H
#define GPUPERF_TESTS_SCRATCH_DIR_H

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace gpuperf {

/**
 * <TempDir>/gpuperf-NAME-PID, emptied on construction (a reused pid's
 * leftovers must not hand a cold test a warm store) and removed again
 * when the guard goes out of scope, so a test run leaves nothing
 * behind. Construction also removes the gpuperf-NAME-PID directories
 * of processes that are no longer alive: what a killed run left. NAME
 * must be unique among the guards one process holds at a time.
 */
struct ScratchDir
{
    explicit ScratchDir(const std::string &name)
        : path(::testing::TempDir() + "gpuperf-" + name + "-" +
               std::to_string(::getpid()))
    {
        removeDeadLeftovers(name);
        std::filesystem::remove_all(path);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    /**
     * A unix socket path inside the directory (created on first use).
     * sun_path holds 108 bytes including the terminator, so a longer
     * path fails the calling test.
     */
    std::string socketPath(const std::string &file) const
    {
        std::filesystem::create_directories(path);
        const std::string sock = path + "/" + file;
        if (sock.size() >= 108)
            ADD_FAILURE() << "socket path too long for sun_path: " << sock;
        return sock;
    }

    const std::string path;

  private:
    static void removeDeadLeftovers(const std::string &name)
    {
        const std::string prefix = "gpuperf-" + name + "-";
        try {
            for (const auto &entry : std::filesystem::directory_iterator(
                     ::testing::TempDir())) {
                const std::string file = entry.path().filename().string();
                if (file.compare(0, prefix.size(), prefix) != 0)
                    continue;
                const std::string pid = file.substr(prefix.size());
                if (pid.empty() || pid.size() > 9 ||
                    pid.find_first_not_of("0123456789") !=
                        std::string::npos)
                    continue;
                if (::kill(static_cast<pid_t>(std::atol(pid.c_str())), 0) !=
                        0 &&
                    errno == ESRCH) {
                    std::error_code ignored;
                    std::filesystem::remove_all(entry.path(), ignored);
                }
            }
        } catch (const std::filesystem::filesystem_error &) {
            // An unreadable TempDir only means nothing gets cleaned.
        }
    }
};

} // namespace gpuperf

#endif // GPUPERF_TESTS_SCRATCH_DIR_H

/**
 * @file
 * A scratch directory private to one test process, so that two copies
 * of a test binary run at once (say a sanitizer build's suite beside a
 * release build's) never read or delete each other's files.
 */
#ifndef CABA_TESTS_TEMP_DIR_H
#define CABA_TESTS_TEMP_DIR_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace caba::test {

/**
 * This process's own directory under testing::TempDir(), with a
 * trailing '/': made with mkdtemp on the first call and removed, with
 * everything in it, when the process exits. A forked child that calls
 * it gets a directory of its own, and a child's exit never removes its
 * parent's: death tests fork, and a child that calls exit() runs the
 * exit-time cleanup it inherited. Call it from one thread at a time.
 */
inline const std::string &
processTempDir()
{
    struct Dir
    {
        pid_t owner = -1;
        std::string path;

        Dir() = default;
        Dir(const Dir &) = delete;
        Dir &operator=(const Dir &) = delete;

        ~Dir()
        {
            if (owner == getpid()) {
                std::error_code ec;
                std::filesystem::remove_all(path, ec);
            }
        }
    };
    static Dir dir;
    if (dir.owner != getpid()) {
        std::string path = testing::TempDir() + "caba_test_XXXXXX";
        if (mkdtemp(path.data()) == nullptr) {
            std::perror(path.c_str());
            std::abort();
        }
        dir.owner = getpid();
        dir.path = path + "/";
    }
    return dir.path;
}

} // namespace caba::test

#endif // CABA_TESTS_TEMP_DIR_H

/**
 * @file
 * The per-process scratch directory of tests/temp_dir.h: one private
 * directory per process, stable within it, and removed when the
 * process that made it exits.
 */
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "temp_dir.h"

namespace caba {
namespace {

namespace fs = std::filesystem;

TEST(ProcessTempDir, IsOnePrivateDirectoryPerProcess)
{
    const std::string &dir = test::processTempDir();
    EXPECT_EQ(&test::processTempDir(), &dir);
    EXPECT_EQ(dir.rfind(testing::TempDir(), 0), 0u) << dir;
    EXPECT_EQ(dir.back(), '/');
    ASSERT_TRUE(fs::is_directory(dir));
    // mkdtemp makes it owner-only.
    EXPECT_EQ(fs::status(dir).permissions() & fs::perms::all,
              fs::perms::owner_all);
}

TEST(ProcessTempDir, ForkedChildGetsItsOwnAndRemovesItAtExit)
{
    const std::string mine = test::processTempDir();
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    std::fflush(nullptr);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        close(fds[0]);
        const std::string &child = test::processTempDir();
        const bool ok = child != mine && fs::is_directory(child) &&
            write(fds[1], child.data(), child.size()) ==
                static_cast<ssize_t>(child.size());
        close(fds[1]);
        std::exit(ok ? 0 : 1);  // runs the exit-time removal
    }
    close(fds[1]);
    std::string child;
    char buf[256];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;)
        child.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    ASSERT_FALSE(child.empty());
    EXPECT_NE(child, mine);
    EXPECT_FALSE(fs::exists(child)) << "the child's exit removes its own";
    EXPECT_TRUE(fs::is_directory(mine)) << "and leaves its parent's";
}

} // namespace
} // namespace caba

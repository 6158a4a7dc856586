#include "common/output_file.h"

#include <atomic>
#include <cstdlib>
#include <filesystem>

namespace caba {

namespace {

constinit std::atomic<bool> g_exit_failed{false};

void
exitStatus()
{
    if (!g_exit_failed.load())
        return;
    // exit() must not be called again from an exit handler, and _Exit
    // flushes no stream.
    std::fflush(nullptr);
    std::_Exit(1);
}

} // namespace

std::FILE *
openForWriting(const std::string &path)
{
    const std::filesystem::path out(path);
    std::error_code ec;
    if (out.has_parent_path())
        std::filesystem::create_directories(out.parent_path(), ec);
    return std::fopen(path.c_str(), "w");
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = openForWriting(path);
    if (f == nullptr)
        return false;
    // fwrite may only buffer; a full device shows up at the close.
    const bool written =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && written;
}

void
onExit(void (*handler)())
{
    // Registered before the first handler, so it runs after the last.
    static const bool status_registered = std::atexit(&exitStatus) == 0;
    (void)status_registered;
    std::atexit(handler);
}

void
failAtExit()
{
    g_exit_failed.store(true);
}

} // namespace caba

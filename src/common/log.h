/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh: panic() for
 * simulator bugs (aborts), fatal() for user/configuration errors (exits),
 * a checked assertion macro that prints context before aborting, and a
 * thread-safe single-line progress reporter for long sweeps.
 */
#ifndef CABA_COMMON_LOG_H
#define CABA_COMMON_LOG_H

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

namespace caba {

/** Aborts with a message; use for conditions that indicate a simulator bug. */
[[noreturn]] inline void
panic(const char *file, int line, const char *msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg, file, line);
    std::abort();
}

/** Exits with a message; use for invalid user configuration. */
[[noreturn]] inline void
fatal(const char *file, int line, const char *msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg, file, line);
    std::exit(1);
}

/**
 * Serialized \r-rewriting progress line on stderr. tick() may be called
 * from any thread; the counter and the write are guarded by one mutex so
 * concurrent workers never interleave partial lines. The destructor
 * blanks the line, matching the old serial sweep behaviour.
 */
class ProgressReporter
{
  public:
    ProgressReporter(std::string label, int total)
        : label_(std::move(label)), total_(total)
    {}

    ~ProgressReporter()
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Blank exactly as many columns as the widest line we wrote;
        // a long label or unit name would otherwise leave its tail
        // behind (and a short one would over-erase the caller's text).
        if (max_width_ > 0) {
            std::fprintf(stderr, "%*s\r", max_width_, "");
            std::fflush(stderr);
        }
    }

    ProgressReporter(const ProgressReporter &) = delete;
    ProgressReporter &operator=(const ProgressReporter &) = delete;

    /** Marks one unit done; @p what names the unit (e.g. "app x design"). */
    void
    tick(const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++done_;
        int len = std::fprintf(stderr, "  [%s] %3d/%-3d %-32s\r",
                               label_.c_str(), done_, total_, what.c_str());
        --len;  // The trailing \r occupies no column.
        if (len > max_width_)
            max_width_ = len;
        std::fflush(stderr);
    }

  private:
    std::mutex mu_;
    std::string label_;
    int total_;
    int done_ = 0;
    int max_width_ = 0;
};

} // namespace caba

#define CABA_PANIC(msg) ::caba::panic(__FILE__, __LINE__, (msg))
#define CABA_FATAL(msg) ::caba::fatal(__FILE__, __LINE__, (msg))

/** Always-on invariant check (independent of NDEBUG). */
#define CABA_CHECK(cond, msg)                                               \
    do {                                                                    \
        if (!(cond))                                                        \
            ::caba::panic(__FILE__, __LINE__, (msg));                       \
    } while (0)

#endif // CABA_COMMON_LOG_H

/**
 * @file
 * Event tracing for the simulator, emitting Chrome trace-event JSON
 * (open the file in Perfetto / chrome://tracing). Categories are gated
 * at runtime: every instrumentation site is guarded by trace::on(cat),
 * a single relaxed load of a process-global mask, so a build with
 * tracing compiled in but disabled pays one predictable branch per
 * site and never touches simulation state — results are bit-identical
 * with tracing on, off, or filtered.
 *
 * Activation:
 *  - environment: CABA_TRACE=<path> turns tracing on for the whole
 *    process and writes the trace at exit; CABA_TRACE_CATEGORIES is an
 *    optional comma list (warp,assist,cache,dram,xbar,slots,counter)
 *    defaulting to all of them when unset or empty. An unknown
 *    category name stops the process.
 *  - programmatic: trace::start(path, mask) / trace::stop() (tests).
 *
 * Threading: events append to per-thread buffers with no locking on
 * the hot path (registration of a new thread's buffer takes a mutex
 * once). Timestamps are simulated cycles, one microsecond per cycle in
 * the Chrome timeline. start()/stop() must not run concurrently with
 * simulation; the sweep driver satisfies this because cells are joined
 * before results are read.
 */
#ifndef CABA_COMMON_TRACE_H
#define CABA_COMMON_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>

#include "common/types.h"

namespace caba {
namespace trace {

/** Event categories; a bitmask gates emission per category. */
enum Category : unsigned {
    kWarp = 1u << 0,        ///< Warp launch/retire instants.
    kAssistWarp = 1u << 1,  ///< AWC spawn / kill / complete.
    kCache = 1u << 2,       ///< L1 / L2 hit-miss, MD-cache lookups.
    kDram = 1u << 3,        ///< Per-bank GDDR5 data-bus bursts.
    kXbar = 1u << 4,        ///< Crossbar packet transfers.
    kSlots = 1u << 5,       ///< Exact per-scheduler issue-slot taxonomy
                            ///< spans (DESIGN.md section 11).
    kCounter = 1u << 6,     ///< Counter tracks: event-queue depth,
                            ///< issuable warps, DRAM read-queue depth.
    kAll = (1u << 7) - 1,
};

/** Trace-process ids: one Chrome "process" lane per subsystem. */
inline constexpr int kPidSm = 1;     ///< tid = SM id.
inline constexpr int kPidAssist = 2; ///< tid = SM id.
inline constexpr int kPidCache = 3;  ///< tid = SM (L1), 100+part (L2),
                                     ///<       200+part (MD cache).
inline constexpr int kPidDram = 4;   ///< tid = channel * 100 + bank.
inline constexpr int kPidXbar = 5;   ///< tid = direction base + port.
inline constexpr int kPidSlots = 6;  ///< tid = SM id * schedulers + s.
inline constexpr int kPidCounter = 7; ///< tid = SM / partition id.

/** Currently enabled categories; zero while no sink is open. */
extern std::atomic<unsigned> g_mask;

/** True when events of @p c are being collected (hot-path guard). */
inline bool
on(Category c)
{
    return (g_mask.load(std::memory_order_relaxed) & c) != 0;
}

/** Parses "warp,assist,cache,dram,xbar,slots,counter,all" (plus the
 *  aliases assist-warp, assist_warp and counters; empty tokens are
 *  skipped). Any other name is fatal, naming CABA_TRACE_CATEGORIES. */
unsigned maskFromNames(const char *csv);

/**
 * Opens a trace sink at @p path collecting categories in @p mask.
 * Replaces any active session. Creates parent directories.
 */
void start(const std::string &path, unsigned mask = kAll);

/** Flushes all buffered events to the sink and closes it. No-op when
 *  no session is active. Events are written sorted by timestamp. */
void stop();

/** True between start() and stop(). */
bool active();

/**
 * Records an instant event. @p name and @p arg_name must be string
 * literals (or otherwise outlive stop()); @p arg_name may be null.
 */
void instant(Category cat, int pid, int tid, const char *name, Cycle ts,
             const char *arg_name = nullptr, std::uint64_t arg = 0);

/** Records a complete ("X") event spanning [@p ts, @p ts + @p dur]. */
void complete(Category cat, int pid, int tid, const char *name, Cycle ts,
              Cycle dur, const char *arg_name = nullptr,
              std::uint64_t arg = 0);

/** Records a counter ("C") sample: a named counter track whose value
 *  at @p ts is @p value. One track per (pid, tid, name). */
void counter(Category cat, int pid, int tid, const char *name, Cycle ts,
             std::uint64_t value);

} // namespace trace
} // namespace caba

#endif // CABA_COMMON_TRACE_H

/**
 * @file
 * The wall-clock profiler (DESIGN.md section 11), one for the whole
 * simulator. Two kinds of host time land in one process-global table:
 *
 *  - run-loop buckets: when CABA_PROF=<path> is set, GpuSystem
 *    timestamps every component cycle batch, skipIdle catch-up and
 *    wire phase, attributing host nanoseconds to (component class,
 *    phase) buckets;
 *  - harness stages: runApp times each cell's build and run, always
 *    (two clock reads per stage), so a sweep can report on stderr where
 *    its wall time went.
 *
 * When CABA_PROF was set at startup, the process exit hook writes a
 * deterministic-schema `caba-prof-v1` JSON document to the given path
 * (every bucket and stage always present, fixed order — only the
 * measured values vary) and prints a top-N table to stderr. A path
 * that cannot be opened for writing at startup stops the process, and a
 * report that cannot be written at exit makes the exit status 1.
 *
 * Determinism contract: the profiler reads host clocks but never reads
 * or writes simulation state, so RunResult is bit-identical with
 * profiling on or off (asserted by tests/test_prof.cc). All wall-clock
 * reads live in prof.cc, which caba-lint's determinism rule
 * whitelists; the totals stay out of the deterministic bench JSON.
 */
#ifndef CABA_COMMON_PROF_H
#define CABA_COMMON_PROF_H

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

namespace caba {
namespace prof {

/** Component classes host time is attributed to. */
enum class Comp : int {
    Sm,         ///< SmCore cycle/catch-up work.
    XbarReq,    ///< Request-crossbar direction.
    XbarReply,  ///< Reply-crossbar direction.
    Partition,  ///< Memory partition (L2 + MD + DRAM channel).
    Wire,       ///< Traffic pumping (includes wake-side catch-ups).
    Loop,       ///< Whole-run loop (inclusive).
    kCount,
};

/** What the component was doing when the time was spent. */
enum class Phase : int {
    Cycle,      ///< cycle(now) calls.
    CatchUp,    ///< Deferred skipIdle() spans charged on wake.
    /** Never recorded: the run loop steps every cycle and no longer
     *  jumps. Kept so the caba-prof-v1 schema keeps its 18 buckets
     *  while perfbench still reads loop/jump (gpu.jump_s, gpu.jumps). */
    Jump,
    kCount,
};

inline constexpr int kComps = static_cast<int>(Comp::kCount);
inline constexpr int kPhases = static_cast<int>(Phase::kCount);
inline constexpr int kBuckets = kComps * kPhases;

/** Stable lower-case names (JSON schema fields). */
const char *compName(Comp c);
const char *phaseName(Phase p);

/** Live read of CABA_PROF: non-empty means profiling is requested.
 *  GpuSystem samples this once per construction. */
bool enabledEnv();

/** Monotonic host time in nanoseconds. The only wall-clock read on the
 *  simulator side outside the trace sink. */
std::int64_t nowNs();

/** Harness stages of one cell (runApp), reported under "self_profile". */
enum class Stage : int {
    Build,      ///< Workload synthesis and GpuSystem construction.
    Run,        ///< launch() plus run().
    kCount,
};

inline constexpr int kStages = static_cast<int>(Stage::kCount);

/** Stable lower-case name (JSON key). */
const char *stageName(Stage s);

/** Adds @p ns to harness stage @p s (thread-safe). */
void addStage(Stage s, std::int64_t ns);

/** Total nanoseconds per harness stage, indexed by Stage. */
std::array<std::int64_t, kStages> stageSnapshot();

/** RAII: adds its own lifetime to one harness stage. */
class StageScope
{
  public:
    explicit StageScope(Stage s) : stage_(s), t0_(nowNs()) {}
    ~StageScope() { addStage(stage_, nowNs() - t0_); }

    StageScope(const StageScope &) = delete;
    StageScope &operator=(const StageScope &) = delete;

  private:
    Stage stage_;
    std::int64_t t0_;
};

/**
 * Per-GpuSystem accumulator: plain arrays on the hot path (no locking,
 * no allocation), merged into the process-global table by flush() once
 * per run. Sweeps run cells on worker threads; each cell owns its
 * Recorder, so the global mutex is taken once per cell, not per cycle.
 */
class Recorder
{
  public:
    void
    add(Comp c, Phase p, std::int64_t ns)
    {
        const std::size_t i = index(c, p);
        ns_[i] += ns;
        ++calls_[i];
    }

    /** Merges this recorder into the global table and zeroes it. */
    void flush();

  private:
    static std::size_t
    index(Comp c, Phase p)
    {
        return static_cast<std::size_t>(static_cast<int>(c) * kPhases +
                                        static_cast<int>(p));
    }

    std::array<std::int64_t, kBuckets> ns_{};
    std::array<std::uint64_t, kBuckets> calls_{};
};

/** Snapshot of one global bucket (tests / report). */
struct Bucket
{
    Comp comp = Comp::Sm;
    Phase phase = Phase::Cycle;
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
};

/** All kBuckets global buckets in fixed (component, phase) order. */
std::array<Bucket, kBuckets> snapshot();

/** Zeroes the global table, stages included (test isolation). */
void resetForTest();

/**
 * Writes the `caba-prof-v1` document to @p path: the fixed-order
 * bucket array plus the harness stage totals under "self_profile".
 * @return false when the file cannot be opened or written.
 */
bool writeReport(const std::string &path);

/**
 * Prints the top-@p n buckets by wall time to @p out, each as a share of
 * loop/cycle (the runs' inclusive wall time, so not ranked itself), with
 * an "unattributed" row for loop/cycle minus every other bucket.
 */
void reportTopN(std::FILE *out, int n);

} // namespace prof
} // namespace caba

#endif // CABA_COMMON_PROF_H

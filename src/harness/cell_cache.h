/**
 * @file
 * Content-addressed result cache for sweep cells (DESIGN.md §12).
 *
 * A cell is one (AppDescriptor, DesignConfig, resolved
 * ExperimentOptions) simulation. Its cache key is a deterministic hash
 * of a canonical text rendering of every semantic input plus a code
 * version string; the value is the full RunResult, serialized exactly
 * (doubles as raw bits), so a cache hit reproduces the caba-bench-v1
 * JSON byte for byte.
 *
 * Two layers:
 *  - disk: enabled by the CABA_CACHE_DIR environment knob. Entries are
 *    written atomically (temp file + rename) under
 *    <dir>/<hh>/<hash>.cell and embed the full key text, so a hash
 *    collision, a truncated write or a stale format is detected on
 *    load and the cell is recomputed with a warning (counted as an
 *    eviction).
 *  - in-process: an explicit opt-in (caba_bench enables it) that
 *    memoizes cells across experiments in one process, so
 *    `caba_bench --all` computes each shared (app, design) cell once.
 *    Tests and library users are unaffected unless they opt in.
 *
 * Invalidation: the key includes kCellCacheCodeVersion, which MUST be
 * bumped whenever simulation semantics change (anything that can alter
 * a RunResult). The run-loop knob (CABA_EVENT_DRIVEN) and the
 * observability knobs (CABA_TRACE, CABA_PROF, CABA_AUDIT) are
 * contractually result-neutral — CI byte-diffs them —
 * and are deliberately NOT part of the key. Under CABA_AUDIT=full (or
 * a numeric period) every disk hit is additionally self-checked: the
 * cell is recomputed and the serialized bytes must match, so a stale
 * cache (unbumped version) is caught by any audited run.
 */
#ifndef CABA_HARNESS_CELL_CACHE_H
#define CABA_HARNESS_CELL_CACHE_H

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "harness/runner.h"

namespace caba {

/** Part of every cache key. Bump on any change to simulation
 *  semantics (new stats, timing changes, codec fixes, ...). */
extern const char *const kCellCacheCodeVersion;

/** Monotonic counters describing one process's cache traffic. */
struct CellCacheStats
{
    std::uint64_t disk_hits = 0;    ///< Cells loaded from CABA_CACHE_DIR.
    std::uint64_t disk_misses = 0;  ///< Disk lookups that found nothing.
    std::uint64_t inproc_hits = 0;  ///< Cells served by the in-process map.
    std::uint64_t stores = 0;       ///< Entries written to disk.
    std::uint64_t evictions = 0;    ///< Corrupt/stale entries replaced.
    std::uint64_t self_checks = 0;  ///< Audited hit-vs-recompute compares.
    std::uint64_t simulations = 0;  ///< Cells actually simulated.
};

/**
 * Canonical key text for one cell: every semantic field of the app,
 * the design and the options (scale already resolved against
 * CABA_SCALE; jobs/json_out excluded — they cannot affect results),
 * plus @p code_version. Line-oriented "field=value" text: readable in
 * cache entries and stable across processes and machines.
 */
std::string cellKeyText(const AppDescriptor &app, const DesignConfig &design,
                        const ExperimentOptions &resolved,
                        const std::string &code_version);

/** 32-hex-digit content address of @p key_text (128-bit FNV-1a pair). */
std::string cellKeyHash(const std::string &key_text);

/** Exact binary serialization of @p r (doubles as raw bits) embedding
 *  @p key_text, magic and checksum. Deserializing reproduces a
 *  RunResult whose JSON export is byte-identical. */
std::string serializeCell(const std::string &key_text, const RunResult &r);

/**
 * Parses @p blob back into @p out. Returns false (with a reason in
 * @p error) on bad magic, checksum mismatch, truncation, or when the
 * embedded key text differs from @p expect_key (hash collision or
 * tampering).
 */
bool deserializeCell(const std::string &blob, const std::string &expect_key,
                     RunResult *out, std::string *error);

/** The process-wide cell cache. Disabled until the first runCell
 *  resolves CABA_CACHE_DIR, unless a layer was enabled explicitly. */
class CellCache
{
  public:
    static CellCache &instance();

    /** Test hook: pins directory (empty = disk off), version and
     *  in-process/self-check behaviour, ignoring the environment. */
    void configure(std::string dir, std::string code_version,
                   bool in_process, bool self_check);

    /** Enables the cross-experiment in-process layer (caba_bench). */
    void enableInProcess();

    /** True when any layer (disk or in-process) is active. */
    bool enabled();

    /**
     * Returns the cell for (@p app, @p design, @p opts), consulting the
     * in-process map, then disk, and only then running @p simulate.
     * Safe to call from sweep worker threads.
     */
    RunResult runCell(const AppDescriptor &app, const DesignConfig &design,
                      const ExperimentOptions &opts,
                      const std::function<RunResult()> &simulate);

    CellCacheStats stats();
    void resetStats();

    /** Drops the in-process layer's contents (tests). */
    void clearInProcess();

    /** Entry path for @p hash under the configured directory. */
    std::string entryPath(const std::string &hash);

  private:
    CellCache() = default;
    void resolveFromEnv();

    std::mutex mu_;
    bool resolved_ = false;
    std::string dir_;               ///< Empty = disk layer off.
    std::string version_;
    bool in_process_ = false;
    bool self_check_ = false;       ///< Recompute + compare every hit.
    std::map<std::string, RunResult> inproc_;   ///< hash -> result
    CellCacheStats stats_;
};

} // namespace caba

#endif // CABA_HARNESS_CELL_CACHE_H

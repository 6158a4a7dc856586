/**
 * @file
 * In-process memo of sweep cells (DESIGN.md §12).
 *
 * A cell is one (AppDescriptor, DesignConfig, resolved
 * ExperimentOptions) simulation, and its RunResult is a pure function
 * of those inputs. caba_bench turns the memo on, so experiments that
 * share cells (Figures 7/8/9 run the same sweep) simulate each cell
 * once per process. Tests and library users are unaffected unless
 * they turn it on.
 *
 * The memo is keyed by cellKeyText, a canonical rendering of every
 * semantic input. The run-loop knob (CABA_EVENT_DRIVEN) and the
 * observability knobs (CABA_TRACE, CABA_PROF, CABA_AUDIT) are
 * contractually result-neutral — CI byte-diffs them — and are
 * deliberately NOT part of the key.
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

/** Counters describing the memo's traffic since it was last set. */
struct CellCacheStats
{
    std::uint64_t simulations = 0;  ///< Cells actually simulated.
    std::uint64_t hits = 0;         ///< Cells served by the memo.
};

/**
 * Canonical key text for one cell: every semantic field of the app,
 * the design and the options (scale already resolved against
 * CABA_SCALE; jobs excluded — it cannot affect results).
 * Line-oriented "field=value" text.
 */
std::string cellKeyText(const AppDescriptor &app, const DesignConfig &design,
                        const ExperimentOptions &resolved);

/** The process-wide cell memo. Off until setEnabled(true). */
class CellCache
{
  public:
    static CellCache &instance();

    /** Turns the memo on or off. Either way it starts over: the memo
     *  is emptied and the counters are zeroed. */
    void setEnabled(bool on);

    bool enabled();

    /**
     * Returns the cell for (@p app, @p design, @p opts), from the memo
     * if it holds it, else by running @p simulate and remembering the
     * result. Safe to call from sweep worker threads.
     */
    RunResult runCell(const AppDescriptor &app, const DesignConfig &design,
                      const ExperimentOptions &opts,
                      const std::function<RunResult()> &simulate);

    CellCacheStats stats();

  private:
    CellCache() = default;

    std::mutex mu_;
    bool enabled_ = false;
    std::map<std::string, RunResult> memo_;  ///< key text -> result
    CellCacheStats stats_;
};

} // namespace caba

#endif // CABA_HARNESS_CELL_CACHE_H

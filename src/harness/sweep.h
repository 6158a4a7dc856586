/**
 * @file
 * The cell driver every experiment shares: runs a list of cells, keeps
 * the results addressable by (app, label), and provides the
 * normalized-metric helpers the figures print.
 *
 * A cell is one simulation: an app under a design with its own
 * options, exported under a label (the JSON "design" string). Cells
 * are independent simulations, so runCells fans them out with
 * parallelFor over hardware_concurrency() threads by default. The worker
 * count is the caller's argument (caba_bench's --jobs) or the
 * CABA_JOBS env var; 1 runs cells serially on the calling thread.
 * Results are bit-identical at any worker count: each cell builds a
 * private Workload + GpuSystem from explicitly seeded RNG state, and
 * results are returned in declared order after the fan-out.
 */
#ifndef CABA_HARNESS_SWEEP_H
#define CABA_HARNESS_SWEEP_H

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.h"

namespace caba {

/** One simulation an experiment declares: @p app under @p design with
 *  @p opts, named @p label in tables and in the JSON "design" field.
 *  (app, label) pairs are unique within one experiment. */
struct Cell
{
    AppDescriptor app;
    std::string label;
    DesignConfig design;
    ExperimentOptions opts;
};

/** True when @p a and @p b are one simulation: equal app, design and
 *  options. The label is not a simulation input. */
bool sameSimulation(const Cell &a, const Cell &b);

/** Every app under every design, app-major, each cell labelled with
 *  its design's name and run with @p opts. */
std::vector<Cell> gridCells(const std::vector<AppDescriptor> &apps,
                            const std::vector<DesignConfig> &designs,
                            const ExperimentOptions &opts);

/** Finished cells, addressable by (app name, label). */
class Sweep
{
  public:
    /** One finished cell: (app name, label, result). */
    struct NamedCell
    {
        std::string app;
        std::string design;  ///< The cell's label.
        RunResult result;
    };

    /**
     * Holds @p cells with their @p results (one per cell, same order),
     * in the given order. App and label name order is first-appearance
     * order; duplicate (app, label) pairs panic.
     */
    Sweep(const std::vector<Cell> &cells, std::vector<RunResult> results);

    const RunResult &at(const std::string &app,
                        const std::string &design) const;

    /** design/app cycles normalized to @p base_design (speedup).
     *  Panics (with the offending names) when the base cell retired
     *  zero cycles — a 0/0 or x/0 ratio would silently poison every
     *  downstream geomean. */
    double speedup(const std::string &app, const std::string &design,
                   const std::string &base_design) const;

    /** Every cell, in the order it was declared. */
    const std::vector<NamedCell> &cells() const { return cells_; }

    const std::vector<std::string> &appNames() const { return app_names_; }
    const std::vector<std::string> &designNames() const
    {
        return design_names_;
    }

  private:
    std::vector<NamedCell> cells_;
    std::map<std::pair<std::string, std::string>, std::size_t> index_;
    std::vector<std::string> app_names_;
    std::vector<std::string> design_names_;
};

/**
 * Runs every cell of @p cells through runApp on @p jobs workers: 0 =
 * CABA_JOBS (a value that is not a positive integer is fatal), else
 * hardware_concurrency; 1 = serial on the calling thread. @return one
 * result per cell, in declared order.
 */
std::vector<RunResult> runCells(const std::vector<Cell> &cells, int jobs);

} // namespace caba

#endif // CABA_HARNESS_SWEEP_H

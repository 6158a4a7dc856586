/**
 * @file
 * App x design sweep driver shared by the figure benches: runs every
 * combination, keeps the results addressable by (app, design), and
 * provides the normalized-metric helpers the figures print.
 *
 * Cells are independent simulations, so the sweep fans them out across a
 * ThreadPool of hardware_concurrency() workers by default. Worker count
 * is overridable with ExperimentOptions::jobs or the CABA_JOBS env var;
 * jobs == 1 runs cells serially on the calling thread (the old
 * behaviour). Results are bit-identical at any worker count: each cell
 * builds a private Workload + GpuSystem from explicitly seeded RNG state
 * and results are committed in serial order after the fan-out.
 */
#ifndef CABA_HARNESS_SWEEP_H
#define CABA_HARNESS_SWEEP_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.h"

namespace caba {

/**
 * Reads CABA_JOBS from the environment (default @p fallback; a value
 * that is not a positive integer is fatal). Read once per sweep, not
 * per cell.
 */
int sweepJobsFromEnv(int fallback);

/** Results of a full sweep, addressable by (app name, design name). */
class Sweep
{
  public:
    /**
     * Runs every app under every design. @p tweak, when given, can
     * adjust options per design (e.g. bandwidth scale baked into the
     * design identity for Figure 12).
     */
    Sweep(const std::vector<AppDescriptor> &apps,
          const std::vector<DesignConfig> &designs,
          const ExperimentOptions &opts,
          const std::function<ExperimentOptions(
              const DesignConfig &, const ExperimentOptions &)> &tweak = {});

    /** One precomputed cell: (app name, design name, result). */
    struct NamedCell
    {
        std::string app;
        std::string design;
        RunResult result;
    };

    /**
     * Builds a sweep directly from precomputed cells without running
     * anything (tests use it for results no simulation produces, such
     * as a zero-cycle base cell). App/design name order is
     * first-appearance order; duplicate (app, design) pairs panic.
     */
    explicit Sweep(std::vector<NamedCell> cells);

    const RunResult &at(const std::string &app,
                        const std::string &design) const;

    /** design/app cycles normalized to @p base_design (speedup).
     *  Panics (with the offending names) when the base cell retired
     *  zero cycles — a 0/0 or x/0 ratio would silently poison every
     *  downstream geomean. */
    double speedup(const std::string &app, const std::string &design,
                   const std::string &base_design) const;

    const std::vector<std::string> &appNames() const { return app_names_; }
    const std::vector<std::string> &designNames() const
    {
        return design_names_;
    }

  private:
    std::map<std::pair<std::string, std::string>, RunResult> cells_;
    std::vector<std::string> app_names_;
    std::vector<std::string> design_names_;
};

} // namespace caba

#endif // CABA_HARNESS_SWEEP_H

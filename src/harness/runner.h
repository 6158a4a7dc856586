/**
 * @file
 * Experiment runner shared by the bench binaries: builds a Workload and
 * a GpuSystem for an (application, design) pair, applies the CABA
 * register accounting to occupancy, runs to completion, and offers the
 * small statistics helpers the figure tables need.
 *
 * runApp is a pure function of its arguments (and of CABA_SCALE, read
 * once per process): every call simulates, and nothing is remembered
 * between calls. Sharing a cell between experiments is the run plan's
 * job (runExperiments in harness/experiment.h).
 */
#ifndef CABA_HARNESS_RUNNER_H
#define CABA_HARNESS_RUNNER_H

#include <string>
#include <vector>

#include "gpu/gpu_system.h"
#include "workloads/workload.h"

namespace caba {

/** Knobs common to every experiment. */
struct ExperimentOptions
{
    /** Loop-trip multiplier; CABA_SCALE env overrides (see scaleFromEnv). */
    double scale = 1.0;

    /** Off-chip bandwidth relative to Table 1 (Figures 1 and 12). */
    double bw_scale = 1.0;

    /** Per-thread registers reserved for assist warps (Section 3.2.2).
     *  BDI subroutines are register-light; 2 per thread (64 per warp)
     *  usually fits the unallocated pool of Figure 2. */
    int assist_regs = 2;

    /** Functional round-trip verification of every compressed line. */
    bool verify = false;

    /** Section 7 extras (memoization / prefetching ablations). */
    ExtrasConfig extras{};

    /** CABA framework knobs (AWB slots, throttle, priorities...). */
    CabaConfig caba{};

    /** MD cache capacity in KB (Section 4.3.2 study). */
    int md_cache_kb = 8;

    /** Cap on resident warps per SM; 0 keeps the occupancy-derived
     *  count. Occupancy studies (and sleep-sensitive runs, where low
     *  occupancy opens long stall windows that SMs sleep through)
     *  lower it. */
    int max_warps = 0;

    bool operator==(const ExperimentOptions &) const = default;
};

/**
 * Reads CABA_SCALE from the environment (default @p fallback). The
 * environment is consulted once per process and cached, keeping getenv
 * out of the per-run hot path and off the sweep worker threads.
 */
double scaleFromEnv(double fallback = 1.0);

/** Builds the Table 1 GpuConfig for @p opts (and @p design). */
GpuConfig makeGpuConfig(const ExperimentOptions &opts);

/** Runs @p app under @p design with @p opts; returns the collected
 *  results. Every call simulates. */
RunResult runApp(const AppDescriptor &app, const DesignConfig &design,
                 const ExperimentOptions &opts = {});

/** The paper's five Figure 1 bars, as fractions of all issue slots. */
struct SlotShares
{
    double active = 0, memory = 0, data = 0, compute = 0, idle = 0;
};

/**
 * Groups @p r's nine sm_slot_* counters (DESIGN.md section 11) into the
 * five Figure 1 bars: Active = issued + AW-issued, Memory =
 * mem-structural + mem-data, Data-Dep = scoreboard (non-mem), Compute =
 * compute-structural, Idle = ibuf-empty + sync + idle. All zero when no
 * slot was accounted.
 */
SlotShares slotShares(const RunResult &r);

/** Geometric mean (ignores non-positive entries). */
double geomean(const std::vector<double> &values);

/** Arithmetic mean. */
double mean(const std::vector<double> &values);

/** Prints the Table 1 system summary header. */
void printSystemConfig(const ExperimentOptions &opts);

} // namespace caba

#endif // CABA_HARNESS_RUNNER_H

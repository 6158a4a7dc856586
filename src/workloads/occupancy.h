/**
 * @file
 * Static SM occupancy calculator (Section 2, "Unutilized On-chip
 * Memory"): given per-thread register demand and block geometry, how
 * many blocks fit under the register-file / thread / block limits, and
 * what fraction of the register file is left unallocated (Figure 2).
 * Assist-warp register demand is added to the per-block requirement
 * exactly as Section 3.2.2 prescribes.
 */
#ifndef CABA_WORKLOADS_OCCUPANCY_H
#define CABA_WORKLOADS_OCCUPANCY_H

namespace caba {

/** Per-thread registers reserved for assist warps under CABA (Section
 *  3.2.2). BDI subroutines are register-light; 2 per thread (64 per
 *  warp) usually fits the unallocated pool of Figure 2. */
inline constexpr int kAssistRegsPerThread = 2;

/** Inputs to the occupancy computation (Table 1 defaults). */
struct OccupancyParams
{
    int regs_per_thread = 32;
    int threads_per_block = 256;

    int regfile_regs = 32768;       ///< 128KB of 4-byte registers.
    int max_threads = 1536;
    int max_blocks = 8;

    /** Extra per-thread registers reserved for assist warps. */
    int assist_regs_per_thread = 0;
};

/** Outputs. */
struct OccupancyResult
{
    int blocks_per_sm = 0;
    int warps_per_sm = 0;

    /** Fraction of the register file not allocated to any block,
     *  computed against the application's own demand (Figure 2). */
    double unallocated_reg_fraction = 0.0;

    /** True when assist-warp registers fit in the unallocated pool
     *  without reducing the block count (the common case, Section 3.2.2). */
    bool assist_fits_free = false;
};

/** Evaluates the occupancy equations. */
OccupancyResult computeOccupancy(const OccupancyParams &p);

} // namespace caba

#endif // CABA_WORKLOADS_OCCUPANCY_H

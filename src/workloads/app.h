/**
 * @file
 * Application descriptors standing in for the paper's 27-benchmark pool
 * (Section 5: CUDA SDK, Rodinia, Mars, Lonestar). Each descriptor
 * captures what the evaluation actually depends on: the instruction mix
 * and arithmetic intensity (Figure 1 stall shape), register/block
 * geometry (Figure 2 occupancy), access pattern and footprint (cache and
 * bandwidth behaviour), and the data-value structure (per-algorithm
 * compressibility, Figure 11).
 */
#ifndef CABA_WORKLOADS_APP_H
#define CABA_WORKLOADS_APP_H

#include <string>
#include <vector>

#include "workloads/data_profile.h"

namespace caba {

/** Global-memory access shape of an app's dominant streams. */
enum class AccessPattern : int {
    Streaming,  ///< Unit-stride, fully coalesced.
    Strided,    ///< Fixed stride > element size (partial coalescing).
    Irregular,  ///< Data-dependent scatter/gather (graphs).
};

/** One synthetic application. */
struct AppDescriptor
{
    std::string name;
    std::string suite;

    bool memory_bound = true;   ///< Figure 1 grouping.
    bool in_fig1 = true;        ///< Member of the 27-app Figure 1 pool.
    bool in_compression = true; ///< Member of the Section 6 study pool.

    // occupancy (Figure 2)
    int regs_per_thread = 32;
    int threads_per_block = 256;

    // per-iteration instruction mix
    int loads = 2;
    int stores = 1;
    int alu = 4;
    int sfu = 0;
    int shmem = 0;

    // access behaviour
    AccessPattern pattern = AccessPattern::Streaming;
    int stride_bytes = 4;           ///< Per-lane element stride.
    double irregular_frac = 0.0;    ///< Fraction of load streams irregular.
    std::uint64_t footprint = 8ull << 20;

    int iterations = 96;            ///< Loop trips per warp (scaled down).

    // data-value structure
    DataMix data{};

    /** Input-redundancy level for the memoization study (Section 7.1). */
    double memo_hit_rate = 0.0;

    bool operator==(const AppDescriptor &) const = default;
};

/** The full application pool (27 Figure 1 apps + KM, TRA, nw). */
const std::vector<AppDescriptor> &allApps();

/** Lookup by name; panics when absent. */
const AppDescriptor &findApp(const std::string &name);

/** The Figure 1 pool, memory-bound first (paper ordering). */
std::vector<AppDescriptor> fig1Apps();

/** The Section 6 compression-study pool. */
std::vector<AppDescriptor> compressionApps();

} // namespace caba

#endif // CABA_WORKLOADS_APP_H

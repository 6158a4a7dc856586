/**
 * @file
 * Binds an AppDescriptor to everything a simulation needs: the kernel
 * program, the coalesced address streams, the functional data
 * generator, and the occupancy numbers that decide how many warps run
 * per SM. A Workload is the contract between a benchmark and the SIMT
 * core: the SM reads its program, per-warp trip counts, coalesced line
 * addresses, store data and memoization hit rate directly.
 */
#ifndef CABA_WORKLOADS_WORKLOAD_H
#define CABA_WORKLOADS_WORKLOAD_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "isa/instruction.h"
#include "mem/backing_store.h"
#include "workloads/app.h"
#include "workloads/occupancy.h"

namespace caba {

/** Result of coalescing one warp-wide global access (Section 4.2). */
struct MemAccess
{
    /** Deduplicated line addresses touched by the 32 lanes. */
    std::vector<Addr> lines;

    /** Stores: true when every touched line is fully overwritten. */
    bool full_line = true;
};

/** A runnable instance of one application. */
class Workload
{
  public:
    /**
     * @param app   descriptor (see allApps())
     * @param scale multiplies per-warp loop trips (1.0 = bench default)
     * @param seed  selects the data universe / irregular streams
     */
    explicit Workload(AppDescriptor app, double scale = 1.0,
                      std::uint64_t seed = 0x5EEDull);

    /** The static instruction sequence every warp executes. */
    const Program &program() const { return program_; }

    /** Loop trip count for global warp @p warp_global. */
    int iterations(int warp_global) const;

    /**
     * Coalesces the access of @p stream by @p warp_global at iteration
     * @p iter into distinct lines.
     */
    void genLines(int stream, int warp_global, int iter,
                  MemAccess *out) const;

    /**
     * Bytes a store writes to @p line (deterministic, so output data has
     * a realistic compressibility profile rather than random noise).
     */
    void outputLine(Addr line, std::uint8_t *out) const;

    /** Generator for the pristine memory image (feeds BackingStore). */
    LineGenerator lineGenerator() const;

    /** Occupancy with @p assist_regs extra per-thread registers. */
    OccupancyResult occupancy(int assist_regs = 0) const;

    /** Warps launched per SM (occupancy-limited, capped at 48). */
    int warpsPerSm(int assist_regs = 0, int max_warps = 48) const;

    /**
     * Binds the total grid size so streaming accesses use grid-stride
     * indexing (element = iter * total_warps * 32 + warp * 32 + lane),
     * the standard CUDA idiom: concurrent warps touch adjacent lines.
     */
    void bindGrid(int total_warps) { total_warps_ = total_warps; }

    const AppDescriptor &app() const { return app_; }

  private:
    struct StreamDesc
    {
        AccessPattern pattern = AccessPattern::Streaming;
        Addr base = 0;
        std::uint64_t footprint = 0;
        int stride = 4;
        bool is_store = false;
    };

    void buildProgram();

    AppDescriptor app_;
    int iterations_;
    int total_warps_ = 720;     ///< 15 SMs x 48 warps until bound.
    std::uint64_t seed_;
    Program program_;
    std::vector<StreamDesc> streams_;
};

} // namespace caba

#endif // CABA_WORKLOADS_WORKLOAD_H

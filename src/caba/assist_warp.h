/**
 * @file
 * Assist-warp state (Section 3): the dynamic instance tracked by one
 * Assist Warp Table entry. An assist warp shares its parent warp's
 * context; what the timing model needs is its remaining instruction
 * sequence, its priority class, and what to do when it finishes.
 */
#ifndef CABA_CABA_ASSIST_WARP_H
#define CABA_CABA_ASSIST_WARP_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace caba {

/** Scheduling class (Section 3.2.3). */
enum class AssistPriority : std::uint8_t {
    High,   ///< Required for correctness; precedes parent warps.
    Low,    ///< Opportunistic; idle issue slots only, may be throttled.
};

/** Why the assist warp was triggered (selects the completion action). */
enum class AssistPurpose : std::uint8_t {
    DecompressFill, ///< Expand a compressed fill before use (Section 4.2.1).
    DecompressHit,  ///< Expand a compressed L1 line on a hit (Section 6.5).
    Compress,       ///< Compress a buffered store (Section 4.2.2).
    Memoize,        ///< LUT insert/lookup (Section 7.1).
    Prefetch,       ///< Opportunistic prefetch issue (Section 7.2).
    Profile,        ///< Stall-vector sampling (framework paper, Sec. 5).
};

/** One instruction of an assist-warp subroutine, as the AWS stores it. */
struct AssistInstr
{
    bool is_mem = false;    ///< LDST pipeline op (vs. ALU pipeline op).
    int latency = 0;        ///< Result latency in cycles.
};

/** A deployed assist warp: one AWT entry (Figure 4). */
struct AssistWarp
{
    std::uint64_t id = 0;
    AssistPriority priority = AssistPriority::High;
    AssistPurpose purpose = AssistPurpose::DecompressFill;

    /** Subroutine body (borrowed from the AWS; non-owning). */
    const std::vector<AssistInstr> *code = nullptr;

    /** Inst.ID: next instruction to issue. */
    int next = 0;

    /** Earliest cycle the next instruction may issue (serial chain). */
    Cycle ready_at = 0;

    /** Line this warp operates on (live-in communicated via the AWT). */
    Addr line = 0;

    /** Opaque completion token interpreted by the purpose handler. */
    std::uint64_t token = 0;

    /** Cycle the trigger fired (latency accounting and tracing). */
    Cycle spawned = 0;

    bool finishedIssuing() const
    {
        return next >= static_cast<int>(code->size());
    }
};

} // namespace caba

#endif // CABA_CABA_ASSIST_WARP_H

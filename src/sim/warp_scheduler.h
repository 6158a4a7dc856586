/**
 * @file
 * Warp front-end of one SM: per-warp decode state and instruction
 * buffers, the round-robin decode pick, scoreboard readiness, and the
 * greedy-then-oldest issue selection of Table 1. Execution itself stays
 * with SmCore — the scheduler hands it a warp id through a try-issue
 * callback and keeps its greedy bookkeeping consistent with whether the
 * issue actually happened.
 *
 * Selection is struct-of-arrays: uint64 bitsets (issuable,
 * operand-blocked, decodable, head-is-global — one bit per warp) are
 * kept in lockstep with the per-warp state, so the per-cycle decode and
 * issue picks are word-scans instead of per-warp loops. Any
 * out-of-band mutation of a WarpState must be followed by
 * refreshWarp(); the picks visit warps in exactly the order the
 * historical loops did.
 */
#ifndef CABA_SIM_WARP_SCHEDULER_H
#define CABA_SIM_WARP_SCHEDULER_H

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "workloads/kernel.h"

namespace caba {

struct SmConfig;

/** Decode/issue front-end shared by the SmCore pipelines. */
class WarpScheduler
{
  public:
    struct DecodedInst
    {
        const Instruction *inst = nullptr;
        int iter = 0;
    };

    /** Fixed-capacity instruction buffer (2 entries per Table 1). */
    struct IBuf
    {
        DecodedInst slots[4];
        std::uint8_t head = 0;
        std::uint8_t count = 0;

        bool empty() const { return count == 0; }
        int size() const { return count; }
        const DecodedInst &front() const { return slots[head]; }

        void
        push(const DecodedInst &d)
        {
            slots[(head + count) & 3] = d;
            ++count;
        }

        void
        pop()
        {
            head = (head + 1) & 3;
            --count;
        }
    };

    struct WarpState
    {
        bool exists = false;
        bool done = false;
        bool decode_done = false;
        int pc = 0;
        int iter = 0;
        int trips_left = 0;
        int global_id = 0;
        std::uint64_t pending_regs = 0;
        /** Subset of pending_regs whose producer is an outstanding
         *  load (LdGlobal/LdShared). Distinguishes memory-data stalls
         *  from plain scoreboard stalls in the slot taxonomy. */
        std::uint64_t pending_mem_regs = 0;
        IBuf ibuf;
    };

    WarpScheduler(int max_warps, int schedulers, int ibuffer_entries,
                  int decode_width);

    /** Initializes warp state for a kernel launch (see SmCore::launch). */
    void launch(const KernelInfo *kernel, int num_warps,
                int warp_global_base, int warp_global_stride);

    const KernelInfo *kernel() const { return kernel_; }

    /** Decode stage: each scheduler picks one warp round-robin. */
    void decodeCycle();

    /** Scoreboard check of the warp's next buffered instruction. */
    bool warpReady(const WarpState &w) const;

    /** Mutable warp state. Callers that change readiness-relevant
     *  fields (pending_regs, ibuf, done) must call refreshWarp() —
     *  pickAndIssue() does so around its try-issue callback. */
    WarpState &
    warp(int w)
    {
        return warps_[static_cast<std::size_t>(w)];
    }

    const WarpState &
    warp(int w) const
    {
        return warps_[static_cast<std::size_t>(w)];
    }

    /** Writeback: clears @p mask from the warp's pending registers.
     *  A pending register has exactly one producer in flight, so the
     *  memory subset can be cleared with the same mask. */
    void
    clearPending(int w, std::uint64_t mask)
    {
        if (w == kInvalidWarp)
            return;
        WarpState &ws = warps_[static_cast<std::size_t>(w)];
        ws.pending_regs &= ~mask;
        ws.pending_mem_regs &= ~mask;
        refreshWarp(w);
    }

    /** Recomputes warp @p w's cached selection bits from its state. */
    void
    refreshWarp(int w)
    {
        const WarpState &ws = warps_[static_cast<std::size_t>(w)];
        const std::uint64_t bit = std::uint64_t{1} << w;
        const bool alive = ws.exists && !ws.done;
        const bool buffered = alive && !ws.ibuf.empty();
        const bool ready = buffered && frontReady(ws);
        setBit(&issuable_, bit, ready);
        setBit(&blocked_, bit, buffered && !ready);
        setBit(&mem_blocked_, bit,
               buffered && !ready &&
                   (frontNeed(ws) & ws.pending_mem_regs) != 0);
        setBit(&head_global_, bit, buffered && frontGlobal(ws));
        setBit(&live_, bit, alive);
        setBit(&decodable_, bit,
               alive && !ws.decode_done &&
                   static_cast<int>(ws.ibuf.size()) < ibuffer_entries_);
    }

    int liveWarps() const { return live_warps_; }

    /** Bookkeeping for a warp issuing its Exit. */
    void noteWarpRetired() { --live_warps_; }

    /**
     * Issue selection for scheduler @p s: greedy-then-oldest over its
     * warp parity. @p try_issue is invoked with a ready warp id and
     * reports whether the issue took a pipeline slot; the greedy warp
     * updates only on success.
     *
     * @p futile names ready warps the caller knows try_issue would
     * refuse without side effects (a global memory op while the LDST
     * unit is taken): they are passed over in their turn, setting
     * @p *saw_futile instead of being offered.
     */
    template <typename TryIssue>
    bool
    pickAndIssue(int s, std::uint64_t futile, bool *saw_futile,
                 TryIssue &&try_issue)
    {
        const std::size_t si = static_cast<std::size_t>(s);
        const int g = greedy_warp_[si];
        if (g != kInvalidWarp && ((issuable_ >> g) & 1)) {
            if ((futile >> g) & 1) {
                *saw_futile = true;
            } else {
                const bool ok = try_issue(g);
                refreshWarp(g);
                if (ok)
                    return true;
            }
        }
        // Oldest first: a word-scan over this scheduler's issuable
        // warps from slot 0, in the historical slot order. A refused
        // offer has no side effects, so the snapshot stays exact for
        // the whole scan.
        for (std::uint64_t m = issuable_ & parity_mask_[si]; m != 0;
             m &= m - 1) {
            const int w = std::countr_zero(m);
            if ((futile >> w) & 1) {
                *saw_futile = true;
                continue;
            }
            const bool ok = try_issue(w);
            refreshWarp(w);
            if (ok) {
                greedy_warp_[si] = w;
                return true;
            }
        }
        return false;
    }

    // -- quiescence queries (for SmCore::nextWork / skipIdle) --

    /** True when any warp could accept decoded instructions. */
    bool anyDecodable() const;

    // -- selection-bitset views (for SmCore's slot taxonomy and the
    //    profiling assist warp's stall-vector samples) --

    std::uint64_t issuableMask() const { return issuable_; }
    std::uint64_t blockedMask() const { return blocked_; }
    std::uint64_t memBlockedMask() const { return mem_blocked_; }
    std::uint64_t liveMask() const { return live_; }
    std::uint64_t headGlobalMask() const { return head_global_; }

    std::uint64_t
    parityMask(int s) const
    {
        return parity_mask_[static_cast<std::size_t>(s)];
    }

  private:
    void decodeOneWarp(WarpState &w);

    /** Register mask @p w's front instruction waits on (ibuf nonempty). */
    static std::uint64_t
    frontNeed(const WarpState &w)
    {
        const Instruction &inst = *w.ibuf.front().inst;
        std::uint64_t need = 0;
        if (inst.dst >= 0)
            need |= std::uint64_t{1} << inst.dst;
        if (inst.src0 >= 0)
            need |= std::uint64_t{1} << inst.src0;
        if (inst.src1 >= 0)
            need |= std::uint64_t{1} << inst.src1;
        return need;
    }

    /** Scoreboard check of @p w's front instruction (ibuf nonempty). */
    static bool
    frontReady(const WarpState &w)
    {
        return (w.pending_regs & frontNeed(w)) == 0;
    }

    /** True when @p w's front instruction (ibuf nonempty) is a global
     *  load or store, i.e. needs the LDST unit. */
    static bool
    frontGlobal(const WarpState &w)
    {
        return isGlobalMem(w.ibuf.front().inst->op);
    }

    static void
    setBit(std::uint64_t *mask, std::uint64_t bit, bool on)
    {
        *mask = on ? (*mask | bit) : (*mask & ~bit);
    }

    int max_warps_;
    int schedulers_;
    int ibuffer_entries_;
    int decode_width_;

    const KernelInfo *kernel_ = nullptr;
    std::vector<WarpState> warps_;
    int live_warps_ = 0;

    std::vector<int> greedy_warp_;
    std::vector<int> decode_rr_;

    // Selection bitsets, bit w = warps_[w] (kept in lockstep by
    // refreshWarp; max_warps <= 64 is checked at construction).
    std::uint64_t issuable_ = 0;    ///< exists, buffered, scoreboard-clear
    std::uint64_t blocked_ = 0;     ///< exists, buffered, operand-blocked
    std::uint64_t mem_blocked_ = 0; ///< blocked, waiting on a load result
    std::uint64_t live_ = 0;        ///< exists and not retired
    std::uint64_t decodable_ = 0;   ///< exists, fetchable, ibuf has room
    std::uint64_t head_global_ = 0; ///< buffered, head is a global ld/st

    /** Bit w set iff w % schedulers == s (scheduler s's warps). */
    std::vector<std::uint64_t> parity_mask_;
};

} // namespace caba

#endif // CABA_SIM_WARP_SCHEDULER_H

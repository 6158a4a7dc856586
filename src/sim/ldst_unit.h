/**
 * @file
 * The coalescing LDST unit of one SM: L1 data cache, MSHRs, pending-load
 * slots, and the per-cycle drain that turns one coalesced access into
 * hits, merged misses, and outgoing requests. Everything CABA-specific
 * (compressed-hit decompression, store compression routing) is delegated
 * back to SmCore through the Hooks interface so the drain order of the
 * original monolithic core is preserved statement for statement.
 */
#ifndef CABA_SIM_LDST_UNIT_H
#define CABA_SIM_LDST_UNIT_H

#include <cstdint>
#include <vector>

#include "common/audit.h"
#include "common/component.h"
#include "common/flat_map.h"
#include "mem/cache.h"
#include "mem/request.h"
#include "workloads/kernel.h"

namespace caba {

struct SmConfig;

/** L1 + MSHRs + coalescer drain for one SM. */
class LdstUnit
{
  public:
    /** CABA/core services the drain path calls back into. */
    class Hooks
    {
      public:
        virtual ~Hooks() = default;

        /** Next SM-wide request id (one sequence across all paths). */
        virtual std::uint64_t allocReqId() = 0;

        /**
         * An L1 load hit: schedule its completion (plain hit latency,
         * or a decompression assist warp for a compressed line).
         * @return false when the hit must replay next cycle (AWT full).
         */
        virtual bool onLoadHit(Addr line, int load_slot, Cycle now) = 0;

        /** Commits store data to the backing image. */
        virtual void commitStore(Addr line) = 0;

        /** Routes a committed store out (compressed or not). @p warp is
         *  the storing warp (parent of a compress assist warp). */
        virtual void routeStore(Addr line, bool full_line, int warp,
                                Cycle now) = 0;

        /** Register writeback for a fully-arrived load. */
        virtual void clearPending(int warp, std::uint64_t mask) = 0;
    };

    struct PendingLoad
    {
        bool active = false;
        int warp = kInvalidWarp;
        std::uint64_t regmask = 0;
        int lines_left = 0;
    };

    LdstUnit(int sm_id, const SmConfig &cfg, const CacheConfig &l1_cfg,
             Hooks *hooks);

    // -- issue-time interface (SmCore::tryIssueRegular) --

    bool busy() const { return st_.busy; }
    bool hasFreeLoadSlot() const { return !free_load_slots_.empty(); }

    /**
     * True when drain() would report a structural stall and change
     * nothing: the cursor line is a load miss with no MSHR to merge
     * into while the MSHR table or the out-queue is full, or a store
     * while the out-queue is full. Only a fill (which frees an MSHR)
     * or an out-queue take can end it. (A compressed-L1 hit that
     * replays on a full AWT re-counts the hit, so it is not pure.)
     */
    bool replayStalled() const;

    /** Starts a coalesced access; returns the buffer genLines fills. */
    MemAccess &beginAccess(bool is_store, int warp);

    /** Load setup: allocates the pending-load slot for the access. */
    void armLoad(int warp, std::uint64_t regmask);

    /** Store setup: no load slot. */
    void armStore() { st_.load_slot = -1; }

    /** Degenerate access (no lines): releases the unit. */
    void cancel() { st_.busy = false; }

    // -- per-cycle drain --

    /**
     * Processes up to lines_per_cycle coalesced lines of the current
     * access. @return true when the unit stalled on a structural
     * resource this cycle (MSHRs/out-queue full, AWT full on a
     * compressed hit) — a memory structural stall for classifyCycle.
     */
    bool drain(Cycle now);

    // -- completion --

    /** One coalesced line of load @p slot finished. */
    void loadLineDone(int slot);

    /** A fill arrived: inserts the line and releases MSHR waiters. */
    void completeFill(Addr line, int bytes);

    /** Prefetch issue if the line is absent and resources allow. */
    bool issuePrefetch(Addr line, Cycle now);

    // -- state queries --

    Channel<MemRequest> &out() { return out_req_; }
    const Channel<MemRequest> &out() const { return out_req_; }
    const Cache &l1() const { return l1_; }

    bool
    drained() const
    {
        return mshrs_.empty() && !st_.busy && out_req_.empty();
    }

    std::uint64_t loadHits() const { return l1_load_hits_; }
    std::uint64_t loadMisses() const { return l1_load_misses_; }
    std::uint64_t mshrMerges() const { return mshr_merges_; }

    /** Registers the request-lifecycle audit. */
    void attachAudit(Audit *audit) { audit_ = audit; }

    /** Mutation self-test hook: the next load slot that completes is
     *  never returned to the free pool (simulates a slot leak, which
     *  drained() does not see). */
    void faultLeakNextLoadSlot() { fault_leak_load_slot_ = true; }

    /** Slot-pool conservation and drain-time emptiness checks. */
    void audit(Audit &a, bool at_drain) const;

  private:
    struct State
    {
        bool busy = false;
        bool is_store = false;
        int warp = kInvalidWarp;
        int load_slot = -1;
        MemAccess access;
        std::size_t cursor = 0;
    };

    int allocLoadSlot(int warp, std::uint64_t regmask, int lines);

    int sm_id_;
    int mshr_entries_;
    int out_queue_;
    int lines_per_cycle_;
    Hooks *hooks_;

    Cache l1_;
    std::vector<PendingLoad> loads_;
    std::vector<int> free_load_slots_;
    /** MSHRs: line -> load slots waiting on its fill. An entry with
     *  no waiters is a prefetch in flight. */
    FlatMap<ListPool<int>::List> mshrs_;
    ListPool<int> mshr_waiters_;
    State st_;
    Channel<MemRequest> out_req_;

    std::uint64_t l1_load_hits_ = 0;
    std::uint64_t l1_load_misses_ = 0;
    std::uint64_t mshr_merges_ = 0;
    Audit *audit_ = nullptr;
    bool fault_leak_load_slot_ = false;
};

} // namespace caba

#endif // CABA_SIM_LDST_UNIT_H

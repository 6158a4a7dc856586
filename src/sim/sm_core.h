/**
 * @file
 * One streaming multiprocessor: fine-grained multithreaded warps fed
 * through per-warp instruction buffers into two GTO schedulers, with
 * ALU/SFU/LDST pipelines, a coalescing LDST unit with MSHRs and an L1,
 * and the CABA machinery (AWC/AWT/AWB + AWS-supplied subroutines)
 * grafted onto the issue stage exactly as in Figure 3.
 *
 * Structurally the core is a thin conductor over two extracted units —
 * the WarpScheduler front-end (decode, scoreboard, GTO pick) and the
 * LdstUnit back-end (L1, MSHRs, coalescer drain) — plus the execution
 * pipelines and the CABA services that glue them together. Both units
 * read the launched Workload directly, and the LDST unit calls back
 * into the core through five private members (it is a friend). The SM
 * is the one component GpuSystem's run loop lets sleep: nextWork()
 * names the next cycle it could act (kNoWork: never on its own), and
 * skipIdle() charges the stalled stretch it slept through. Its crossbar
 * face is two calls: GpuSystem takes requests from out() and hands
 * replies to deliver().
 *
 * The core's one cycle account is the exact slot taxonomy below: every
 * scheduler slot of every accounted cycle is charged to one
 * SlotCategory, and Figure 1's five bars group those categories
 * (slotShares in harness/runner.h).
 */
#ifndef CABA_SIM_SM_CORE_H
#define CABA_SIM_SM_CORE_H

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <vector>

#include "caba/awc.h"
#include "caba/aws.h"
#include "common/flat_map.h"
#include "common/ring.h"
#include "common/rng.h"
#include "common/stats.h"
#include "compress/design.h"
#include "mem/backing_store.h"
#include "mem/cache.h"
#include "mem/compression_model.h"
#include "mem/request.h"
#include "sim/ldst_unit.h"
#include "sim/warp_scheduler.h"
#include "workloads/workload.h"

namespace caba {

/** SM pipeline parameters (Table 1 defaults). */
struct SmConfig
{
    int max_warps = 48;
    int schedulers = 2;
    int ibuffer_entries = 2;
    int decode_width = 2;       ///< Instructions decoded per warp pick.

    int alu_latency = 6;
    int sfu_latency = 24;
    int shmem_latency = 24;
    int l1_latency = 20;

    /** Operand-collector style in-flight caps (structural stall source). */
    int alu_inflight_max = 12;
    int sfu_inflight_max = 4;

    int mshr_entries = 64;
    int out_queue = 32;
    int lines_per_cycle = 2;    ///< Coalesced lines the LDST handles/cycle.

    CacheConfig l1{16 * 1024, 4, 1};
};

/** Optional CABA applications beyond compression (Section 7). */
struct ExtrasConfig
{
    bool memoize = false;           ///< Hits at the app's memo_hit_rate.

    bool prefetch = false;          ///< Stride prefetch assist warps.

    bool profile = false;           ///< Profiling assist warps (framework
                                    ///< paper generalization).
    int profile_interval = 512;     ///< Cycles between profile-AW spawns.

    bool operator==(const ExtrasConfig &) const = default;
};

/**
 * Exact per-issue-slot taxonomy (DESIGN.md section 11): every scheduler
 * slot of every accounted cycle is charged to exactly one category.
 * Audit cross-checks sum(categories) == accounted cycles x schedulers.
 */
enum SlotCategory : int {
    kSlotIssued = 0,    ///< A regular warp instruction issued.
    kSlotAwIssued,      ///< An assist-warp instruction issued.
    kSlotMemStruct,     ///< Memory structural: LDST drain stalled, mem
                        ///< port taken, or no load slot for a ready op.
    kSlotCompStruct,    ///< Compute structural: ALU/SFU caps or SFU port.
    kSlotMemData,       ///< Scoreboard wait on an outstanding load.
    kSlotScoreboard,    ///< Scoreboard wait on a non-memory producer.
    kSlotSync,          ///< Barrier wait (reserved: this ISA has no
                        ///< barrier ops; audited to stay zero).
    kSlotIbufEmpty,     ///< Live warps, but none buffered this parity.
    kSlotIdle,          ///< No live warp on this scheduler's parity.
    kNumSlotCategories,
};

/** Stable stat/trace names, indexed by SlotCategory. */
extern const char *const kSlotCategoryNames[kNumSlotCategories];

/** SmCore::nextWork() sentinel: the core will never act again on its
 *  own (traffic the wire phase moves can still wake it). */
inline constexpr Cycle kNoWork = ~Cycle{0};

/** One streaming multiprocessor. */
class SmCore
{
  public:
    SmCore(int id, const SmConfig &cfg, const DesignConfig &design,
           const CabaConfig &caba_cfg, const ExtrasConfig &extras,
           AssistWarpStore *aws, CompressionModel *model,
           BackingStore *backing);

    /**
     * Launches @p num_warps warps of @p kernel on this SM. Global warp
     * ids are @p warp_global_base + k * @p warp_global_stride — thread
     * blocks distribute round-robin across SMs, so stride = num SMs.
     */
    void launch(const Workload *kernel, int num_warps,
                int warp_global_base, int warp_global_stride = 1);

    /** Advances the core one cycle. */
    void cycle(Cycle now);

    /** True when every warp retired and all machinery drained. */
    bool done() const;

    /** The core needs cycles until fully drained. */
    bool busy() const { return !done(); }

    /**
     * Earliest cycle >= @p now at which ticking this core could change
     * state: an event-ring bucket fires, an assist warp becomes ready,
     * a warp can decode or issue, or the LDST unit can make progress.
     * A core whose LDST unit is in a pure replay stall (see
     * LdstUnit::replayStalled) and whose ready warps all wait for it
     * sleeps until a fill, an out-queue take or one of those events.
     */
    Cycle nextWork(Cycle now) const;

    /**
     * Accounts the skipped cycles [from, to) exactly as ticking them
     * would have: issue-slot history for the throttle window, the slot
     * taxonomy and its trace spans, for a quiescent stretch (every slot
     * classified from the frozen scheduler bitsets) or an LDST replay
     * stall (every slot memory structural).
     */
    void skipIdle(Cycle from, Cycle to);

    // -- crossbar-facing interface --

    /** Outgoing requests, drained into the request crossbar. */
    Ring<MemRequest> &out() { return ldst_.out(); }

    /** Fill/reply delivery from the reply crossbar. An SM takes every
     *  reply (fills never back-pressure the crossbar). */
    void deliver(const MemRequest &reply, Cycle now);

    // -- inspection --

    int id() const { return id_; }

    /** Warps passing the scoreboard right now (counter trace track). */
    int issuableWarps() const
    {
        return std::popcount(sched_.issuableMask());
    }

    /** Exact slot-taxonomy counters (tests; stats() exports them). */
    std::uint64_t slotCount(SlotCategory c) const
    {
        return slot_counts_[static_cast<std::size_t>(c)];
    }

    /** Snapshot of every per-SM counter. */
    StatSet stats() const;

    /** Registers the request-lifecycle audit (forwards to the LDST
     *  unit, which injects and the core, which retires). */
    void
    attachAudit(Audit *audit)
    {
        audit_ = audit;
        ldst_.attachAudit(audit);
    }

    /** Mutation self-test hook (see LdstUnit::faultLeakNextLoadSlot). */
    void faultLeakNextLoadSlot() { ldst_.faultLeakNextLoadSlot(); }

    /** Core-level invariants: LDST/AWC checks, the fill identity, and
     *  drain-time emptiness of the CABA bookkeeping. */
    void audit(Audit &a, bool at_drain) const;
    const Cache &l1() const { return ldst_.l1(); }
    const AssistWarpController &awc() const { return awc_; }
    /** Regular warp instructions issued: every one occupies exactly
     *  one accounted slot (it needs a live warp, which opens the
     *  accounting gate). */
    std::uint64_t instructionsIssued() const { return slotCount(kSlotIssued); }

  private:
    friend class LdstUnit;

    using WarpState = WarpScheduler::WarpState;
    using DecodedInst = WarpScheduler::DecodedInst;

    /** Delayed writeback / pipeline-release event. */
    struct Event
    {
        enum class Kind : std::uint8_t {
            RegWriteback,   ///< Clear regs; release alu/sfu slot.
            LoadLineDone,   ///< One coalesced line of a load finished.
            FillDone,       ///< HW decompression at L1 fill finished.
        };
        Kind kind = Kind::RegWriteback;
        int warp = kInvalidWarp;
        std::uint64_t regmask = 0;
        int pipe = 0;           ///< 0 none, 1 alu, 2 sfu.
        int load_slot = -1;
        Addr line = 0;
    };

    /** A buffered store awaiting its compression assist warp. */
    struct PendingStore
    {
        std::uint64_t token = 0;    ///< The Compress assist warp's token.
        bool full_line = true;
    };

    // -- CABA/core services the LDST unit's drain path calls --

    /** Next SM-wide request id (one sequence across all paths). */
    std::uint64_t allocReqId() { return next_req_id_++; }

    /**
     * An L1 load hit: schedule its completion (plain hit latency, or a
     * decompression assist warp for a compressed line).
     * @return false when the hit must replay next cycle (AWT full).
     */
    bool onLoadHit(Addr line, int load_slot, Cycle now);

    /** Commits store data to the backing image. */
    void commitStore(Addr line);

    /** Routes a committed store out (compressed or not). */
    void routeStore(Addr line, bool full_line, Cycle now);

    /** Register writeback for a fully-arrived load. */
    void
    clearPending(int warp, std::uint64_t mask)
    {
        sched_.clearPending(warp, mask);
    }

    // pipeline stages
    void processEvents(Cycle now);
    void reapAssistWarps(Cycle now);
    void retryPendingFills(Cycle now);
    void issueStage(Cycle now);

    // slot taxonomy
    int classifySlotStall(int s) const;
    int classifySlotQuiescent(int s) const;
    void recordSlots(int s, int cat, std::uint64_t k, Cycle from);
    void closeSlotSpans(Cycle now);

    // profiling assist warp
    void tickProfileTrigger(Cycle now);
    void spawnProfileWarp(Cycle now);
    void sampleStallVector();

    // helpers
    bool tryIssueRegular(int warp, Cycle now);
    bool tryIssueAssist(AssistWarp &aw, Cycle now);
    void scheduleEvent(Cycle at, Event ev, Cycle now);
    void completeFill(Addr line);
    void emitStoreRequest(Addr line, bool full_line, bool compressed_ok,
                          Cycle now);
    bool triggerDecompress(Addr line, AssistPurpose purpose,
                           std::uint64_t token, Cycle now);
    void maybePrefetch(Addr line, int stream, Cycle now);

    static constexpr int kRingSize = 64;

    int id_;
    SmConfig cfg_;
    DesignConfig design_;
    ExtrasConfig extras_;
    AssistWarpStore *aws_;
    CompressionModel *model_;
    BackingStore *backing_;
    const Workload *kernel_ = nullptr;

    AssistWarpController awc_;
    Rng rng_;
    WarpScheduler sched_;
    LdstUnit ldst_;

    std::vector<AssistWarp> reaped_;            ///< Reap scratch, reused.
    std::deque<Addr> pending_fills_;            ///< Awaiting AWT room.
    /** Buffered stores by line: a newer store to a line supersedes its
     *  pending compression, so each line has at most one. */
    FlatMap<PendingStore> comp_stores_;
    std::uint64_t next_store_token_ = 1;
    std::uint64_t next_req_id_ = 1;

    std::vector<std::vector<Event>> ring_;
    int outstanding_events_ = 0;

    // per-cycle port state
    int alu_inflight_ = 0;
    int sfu_inflight_ = 0;
    bool mem_port_used_ = false;
    bool sfu_port_used_ = false;
    bool ldst_stalled_this_cycle_ = false;

    // per-slot classification hints (reset at the top of every
    // scheduler slot in issueStage)
    bool slot_mem_block_ = false;
    bool slot_comp_block_ = false;

    int assist_rr_ = 0;

    // exact slot taxonomy (DESIGN.md section 11)
    std::array<std::uint64_t, kNumSlotCategories> slot_counts_{};
    /** Cycles with accounting open: a live warp or resident AW existed
     *  at the top of the issue stage. Audit identity:
     *  sum(slot_counts_) == accounted_cycles_ * schedulers. */
    std::uint64_t accounted_cycles_ = 0;
    /** AW-issued slots split by AssistPurpose (sums to the AW-issued
     *  category; second audit identity). */
    static constexpr int kNumAwPurposes = 6;
    std::array<std::uint64_t, kNumAwPurposes> aw_slots_{};

    // profiling assist warp (extras_.profile)
    int profile_countdown_ = 0;
    Distribution profile_ready_dist_;
    Distribution profile_blocked_dist_;
    Distribution profile_mem_blocked_dist_;

    /** Per-scheduler slot-taxonomy trace spans (kSlots category):
     *  current category (-1 none) and span start. */
    std::vector<int> slot_span_cat_;
    std::vector<Cycle> slot_span_start_;

    Distribution fill_latency_dist_;

    /** Hot-path counters (assembled into a StatSet by stats()). */
    struct Counters
    {
        std::uint64_t issued_alu = 0;
        std::uint64_t issued_sfu = 0;
        std::uint64_t issued_shmem = 0;
        std::uint64_t issued_branches = 0;
        std::uint64_t issued_global_loads = 0;
        std::uint64_t issued_global_stores = 0;
        std::uint64_t global_lines_accessed = 0;
        std::uint64_t warps_retired = 0;
        std::uint64_t assist_alu_issued = 0;
        std::uint64_t assist_mem_issued = 0;
        std::uint64_t assist_instructions = 0;
        std::uint64_t assist_idle_slot_issues = 0;
        std::uint64_t fills = 0;
        std::uint64_t fill_latency_total = 0;
        std::uint64_t fills_compressed = 0;
        std::uint64_t caba_decompressions = 0;
        std::uint64_t caba_hit_decompressions = 0;
        std::uint64_t caba_compressions = 0;
        std::uint64_t hw_l1_decompressions = 0;
        std::uint64_t hw_store_compressions = 0;
        std::uint64_t stores_sent_compressed = 0;
        std::uint64_t stores_sent_uncompressed = 0;
        std::uint64_t stores_buffered = 0;
        std::uint64_t store_buffer_overflows = 0;
        std::uint64_t stale_compressions_killed = 0;
        std::uint64_t memo_hits = 0;
        std::uint64_t memoize_warps = 0;
        std::uint64_t prefetch_warps = 0;
        std::uint64_t prefetches_issued = 0;
        std::uint64_t prefetches_dropped = 0;
        std::uint64_t profile_warps = 0;
        std::uint64_t profile_samples = 0;
        std::uint64_t profile_drops = 0;
    };
    Counters n_;
    Audit *audit_ = nullptr;
};

} // namespace caba

#endif // CABA_SIM_SM_CORE_H

/**
 * @file
 * Assist Warp Controller (Section 3.3): triggers, tracks and manages
 * assist warps via the Assist Warp Table (AWT), stages low-priority
 * warps through the two dedicated AWB entries, and throttles deployment
 * based on pipeline utilization (Section 3.4, "Dynamic Feedback and
 * Throttling").
 */
#ifndef CABA_CABA_AWC_H
#define CABA_CABA_AWC_H

#include <cstdint>
#include <deque>
#include <vector>

#include "caba/assist_warp.h"
#include "common/stats.h"

namespace caba {

class Audit;

/** CABA framework knobs (one instance per SM). */
struct CabaConfig
{
    int awt_entries = 48;       ///< Max tracked assist warps (1/warp slot).
    int awb_low_slots = 2;      ///< IB partition for low-priority warps.

    /** Utilization throttle: low-priority warps deploy only when the
     *  fraction of idle issue slots over the window exceeds the floor. */
    bool throttle = true;
    int throttle_window = 128;
    double throttle_idle_floor = 0.05;

    /** Pending-store buffer entries per SM (Section 4.2.2: a few
     *  dedicated L1 sets or shared memory hold buffered stores). */
    int store_buffer = 16;

    /** Priority assignment (Section 3.4): decompression blocks its
     *  parent and defaults to high priority; compression is off the
     *  critical path and defaults to low. The ablation bench flips
     *  these to show why the paper's assignment is the right one. */
    bool decompress_high_priority = true;
    bool compress_low_priority = true;

    bool operator==(const CabaConfig &) const = default;
};

/** Per-SM assist-warp controller. */
class AssistWarpController
{
  public:
    explicit AssistWarpController(const CabaConfig &cfg);

    /**
     * Deploys a new assist warp into the AWT.
     * @return false when the AWT is full (caller falls back: a store
     *         goes out uncompressed; a decompression is queued).
     */
    bool trigger(AssistWarp aw);

    /** True when trigger() would succeed. */
    bool hasRoom() const;

    /** Live AWT entries (scheduler iterates these). */
    std::vector<AssistWarp> &table() { return table_; }
    const std::vector<AssistWarp> &table() const { return table_; }

    /**
     * True when @p aw may issue this cycle under the AWB staging and
     * throttling rules. High priority always may; low priority needs an
     * AWB slot (first awb_low_slots low-priority entries) and an idle
     * pipeline history.
     */
    bool eligible(const AssistWarp &aw) const;

    /** Removes finished entries, reporting them via @p out. */
    void reapFinished(Cycle now, std::vector<AssistWarp> *out);

    /** Kills entries of @p purpose matching @p token (Section 3.4). */
    int killByToken(std::uint64_t token, AssistPurpose purpose);

    /** Feeds the utilization monitor: was this issue slot used? */
    void noteIssueSlot(bool used);

    /**
     * Equivalent to @p slots consecutive noteIssueSlot(false) calls.
     * Used when a sleeping SM's idle cycles are charged: they still
     * age the throttle window exactly as ticked idle cycles would, so
     * the idle-fraction gate sees the same history either way.
     */
    void skipIdleSlots(std::uint64_t slots);

    /** Fraction of idle issue slots over the sampling window. */
    double idleFraction() const;

    /** Snapshot of trigger/completion counters. */
    StatSet
    stats() const
    {
        StatSet s;
        s.setCounter("triggers", triggers_);
        s.setCounter("triggers_high", triggers_high_);
        s.setCounter("triggers_low", triggers_ - triggers_high_);
        s.setCounter("completions", completions_);
        s.setCounter("kills", kills_);
        s.setCounter("awt_full_rejections", rejections_);
        s.set("awt_capacity", static_cast<std::uint64_t>(cfg_.awt_entries));
        s.dist("latency").merge(latency_);
        return s;
    }

    const CabaConfig &config() const { return cfg_; }

    /** Trigger identity and staging-order consistency checks. */
    void audit(Audit &a) const;

  private:
    /** Drops @p id from the low-priority staging order. */
    void removeLowId(std::uint64_t id);

    CabaConfig cfg_;
    std::vector<AssistWarp> table_;
    std::uint64_t next_id_ = 1;

    /**
     * Ids of live low-priority entries, ascending (ids are assigned from
     * a monotonic sequence and table_ erases preserve order, so this is
     * exactly the table's low-priority subsequence). The first
     * awb_low_slots of these hold the AWB staging slots, which makes
     * eligible() O(1) instead of a scan over the whole AWT.
     */
    std::deque<std::uint64_t> low_ids_;

    /** Sliding-window issue-slot history (ring of 0/1). */
    std::vector<std::uint8_t> window_;
    int window_pos_ = 0;
    int window_idle_ = 0;
    int window_filled_ = 0;

    std::uint64_t triggers_ = 0;
    std::uint64_t triggers_high_ = 0;
    std::uint64_t completions_ = 0;
    std::uint64_t kills_ = 0;
    std::uint64_t rejections_ = 0;

    /** Spawn-to-completion cycles of every reaped assist warp. */
    Distribution latency_;
};

} // namespace caba

#endif // CABA_CABA_AWC_H

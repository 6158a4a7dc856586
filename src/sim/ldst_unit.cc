#include "sim/ldst_unit.h"

#include <algorithm>

#include "common/audit.h"
#include "common/log.h"
#include "common/trace.h"
#include "sim/sm_core.h"

namespace caba {

LdstUnit::LdstUnit(int sm_id, const SmConfig &cfg, const CacheConfig &l1_cfg,
                   Hooks *hooks)
    : sm_id_(sm_id), mshr_entries_(cfg.mshr_entries),
      out_queue_(cfg.out_queue), lines_per_cycle_(cfg.lines_per_cycle),
      hooks_(hooks), l1_(l1_cfg), out_req_(cfg.out_queue)
{
    CABA_CHECK(hooks_, "LDST unit needs core hooks");
    loads_.resize(static_cast<std::size_t>(cfg.max_warps) * 8);
    for (int i = static_cast<int>(loads_.size()) - 1; i >= 0; --i)
        free_load_slots_.push_back(i);
    // Sized for a full MSHR table; merges beyond one waiter per entry
    // grow the pool once.
    const auto entries = static_cast<std::size_t>(std::max(mshr_entries_, 0));
    mshrs_.reserve(entries);
    mshr_waiters_.reserve(entries);
}

MemAccess &
LdstUnit::beginAccess(bool is_store, int warp)
{
    CABA_CHECK(!st_.busy, "LDST unit already busy");
    st_.busy = true;
    st_.is_store = is_store;
    st_.warp = warp;
    st_.cursor = 0;
    return st_.access;
}

void
LdstUnit::armLoad(int warp, std::uint64_t regmask)
{
    st_.load_slot = allocLoadSlot(
        warp, regmask, static_cast<int>(st_.access.lines.size()));
}

int
LdstUnit::allocLoadSlot(int warp, std::uint64_t regmask, int lines)
{
    CABA_CHECK(!free_load_slots_.empty(), "load slot pool exhausted");
    const int slot = free_load_slots_.back();
    free_load_slots_.pop_back();
    PendingLoad &pl = loads_[static_cast<std::size_t>(slot)];
    pl.active = true;
    pl.warp = warp;
    pl.regmask = regmask;
    pl.lines_left = lines;
    return slot;
}

void
LdstUnit::loadLineDone(int slot)
{
    if (slot < 0)
        return;
    PendingLoad &pl = loads_[static_cast<std::size_t>(slot)];
    CABA_CHECK(pl.active, "completion for dead load");
    if (--pl.lines_left == 0) {
        hooks_->clearPending(pl.warp, pl.regmask);
        if (fault_leak_load_slot_) {
            // Seeded fault: the warp proceeds but the slot is never
            // freed -- invisible to drained(). The audit must notice.
            fault_leak_load_slot_ = false;
            return;
        }
        pl.active = false;
        free_load_slots_.push_back(slot);
    }
}

void
LdstUnit::completeFill(Addr line, int bytes)
{
    // L1 is write-evict, so it holds only clean lines: victims need no
    // writeback and are not collected.
    l1_.insert(line, bytes, false, nullptr);
    const ListPool<int>::List *found = mshrs_.find(line);
    if (found == nullptr)
        return;                                 // e.g. prefetch raced
    ListPool<int>::List waiting = *found;
    // The entry is erased only after every waiter has completed.
    for (std::int32_t n = waiting.head; n >= 0; n = mshr_waiters_.next(n))
        loadLineDone(mshr_waiters_.value(n));
    mshrs_.erase(line);
    mshr_waiters_.release(waiting);
}

bool
LdstUnit::issuePrefetch(Addr line, Cycle now)
{
    if (!l1_.contains(line) && !mshrs_.contains(line) &&
        static_cast<int>(mshrs_.size()) < mshr_entries_ &&
        static_cast<int>(out_req_.size()) < out_queue_) {
        mshrs_.tryEmplace(line);    // fill with no waiters
        MemRequest req;
        req.id = hooks_->allocReqId();
        req.line = line;
        req.src_sm = sm_id_;
        req.payload_bytes = 8;
        out_req_.push(req);
        if (audit_)
            audit_->onInject(req, now);
        return true;
    }
    return false;
}

bool
LdstUnit::replayStalled() const
{
    if (!st_.busy || st_.cursor >= st_.access.lines.size())
        return false;
    const bool out_full = static_cast<int>(out_req_.size()) >= out_queue_;
    if (st_.is_store)
        return out_full;
    const Addr line = st_.access.lines[st_.cursor];
    return !l1_.contains(line) && !mshrs_.contains(line) &&
           (static_cast<int>(mshrs_.size()) >= mshr_entries_ || out_full);
}

bool
LdstUnit::drain(Cycle now)
{
    if (!st_.busy)
        return false;
    for (int n = 0; n < lines_per_cycle_; ++n) {
        if (st_.cursor >= st_.access.lines.size()) {
            st_.busy = false;
            return false;
        }
        const Addr line = st_.access.lines[st_.cursor];
        if (!st_.is_store) {
            // ---- load line ----
            // Probe without counting first so replayed lines do not
            // inflate hit/miss statistics or churn LRU state.
            if (!l1_.contains(line)) {
                if (ListPool<int>::List *waiting = mshrs_.find(line)) {
                    if (trace::on(trace::kCache)) {
                        trace::instant(trace::kCache, trace::kPidCache,
                                       sm_id_, "l1_miss", now, "line", line);
                    }
                    l1_.access(line);   // counts the miss
                    mshr_waiters_.append(*waiting, st_.load_slot);
                    ++l1_load_misses_;
                    ++mshr_merges_;
                    ++st_.cursor;
                    continue;
                }
                if (static_cast<int>(mshrs_.size()) >= mshr_entries_ ||
                    static_cast<int>(out_req_.size()) >= out_queue_) {
                    // Pure replay: no counter, trace or LRU effect
                    // until an MSHR or out-queue slot frees up.
                    return true;
                }
                if (trace::on(trace::kCache)) {
                    trace::instant(trace::kCache, trace::kPidCache, sm_id_,
                                   "l1_miss", now, "line", line);
                }
                l1_.access(line);       // counts the miss
                ++l1_load_misses_;
                mshr_waiters_.append(mshrs_[line], st_.load_slot);
                MemRequest req;
                req.id = hooks_->allocReqId();
                req.line = line;
                req.is_write = false;
                req.src_sm = sm_id_;
                req.warp = st_.warp;
                req.created = now;
                req.payload_bytes = 8;  // read request header
                out_req_.push(req);
                if (audit_)
                    audit_->onInject(req, now);
                ++st_.cursor;
                continue;
            }
            if (l1_.access(line)) {
                ++l1_load_hits_;
                if (trace::on(trace::kCache)) {
                    trace::instant(trace::kCache, trace::kPidCache, sm_id_,
                                   "l1_hit", now, "line", line);
                }
                if (!hooks_->onLoadHit(line, st_.load_slot, now)) {
                    // AWT full: retry next cycle (the retry re-counts
                    // the hit).
                    return true;
                }
                ++st_.cursor;
                continue;
            }
            CABA_PANIC("L1 probe/access disagreement");
        } else {
            // ---- store line ----
            if (static_cast<int>(out_req_.size()) >= out_queue_) {
                return true;
            }
            hooks_->commitStore(line);
            // L1 is write-evict for global stores.
            Eviction ev;
            l1_.invalidate(line, &ev);
            hooks_->routeStore(line, st_.access.full_line, st_.warp, now);
            ++st_.cursor;
        }
    }
    if (st_.cursor >= st_.access.lines.size())
        st_.busy = false;
    return false;
}

void
LdstUnit::audit(Audit &a, bool at_drain) const
{
    a.checkEq("l1", "hits + misses == accesses",
              l1_.hits() + l1_.misses(), l1_.accesses());
    std::uint64_t active = 0;
    for (const PendingLoad &pl : loads_)
        active += pl.active ? 1 : 0;
    a.checkEq("ldst", "active + free load slots == pool size",
              active + free_load_slots_.size(), loads_.size());
    if (!at_drain)
        return;
    a.checkEq("ldst", "no active load slots at drain", active, 0);
    a.checkTrue("ldst", "MSHRs empty at drain", mshrs_.empty());
    a.checkTrue("ldst", "out-queue empty at drain", out_req_.empty());
}

} // namespace caba

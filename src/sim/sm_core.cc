#include "sim/sm_core.h"

#include <algorithm>

#include "common/audit.h"
#include "common/log.h"
#include "common/trace.h"

namespace caba {

namespace {

/** Trace label for an assist-warp purpose (string literals only: the
 *  tracer keeps pointers until flush). */
const char *
purposeName(AssistPurpose p)
{
    switch (p) {
      case AssistPurpose::DecompressFill: return "decompress_fill";
      case AssistPurpose::DecompressHit: return "decompress_hit";
      case AssistPurpose::Compress: return "compress";
      case AssistPurpose::Memoize: return "memoize";
      case AssistPurpose::Prefetch: return "prefetch";
      case AssistPurpose::Profile: return "profile";
    }
    return "assist";
}

} // namespace

const char *const kSlotCategoryNames[kNumSlotCategories] = {
    "slot_issued",     "slot_aw_issued", "slot_mem_struct",
    "slot_comp_struct", "slot_mem_data",  "slot_scoreboard",
    "slot_sync",       "slot_ibuf_empty", "slot_idle",
};

SmCore::SmCore(int id, const SmConfig &cfg, const DesignConfig &design,
               const CabaConfig &caba_cfg, const ExtrasConfig &extras,
               AssistWarpStore *aws, CompressionModel *model,
               BackingStore *backing)
    : id_(id), cfg_(cfg), design_(design), extras_(extras), aws_(aws),
      model_(model), backing_(backing),
      awc_(caba_cfg),
      rng_(0xC0FFEEull + static_cast<std::uint64_t>(id) * 7919),
      sched_(cfg.max_warps, cfg.schedulers, cfg.ibuffer_entries,
             cfg.decode_width),
      ldst_(id, cfg, {cfg.l1.size_bytes, cfg.l1.assoc, design.l1_tag_factor},
            this),
      ring_(kRingSize)
{
    CABA_CHECK(cfg_.alu_latency < kRingSize &&
               cfg_.sfu_latency < kRingSize &&
               cfg_.shmem_latency < kRingSize &&
               cfg_.l1_latency < kRingSize,
               "pipeline latency exceeds event ring");
    if (design_.usesCompression()) {
        CABA_CHECK(model_, "compressed design needs a compression model");
        CABA_CHECK(aws_, "CABA design needs an assist warp store");
    }
    if (extras_.profile) {
        CABA_CHECK(aws_, "profiling assist warps need an assist warp store");
        CABA_CHECK(extras_.profile_interval >= 1,
                   "profile interval must be at least one cycle");
    }
    comp_stores_.reserve(
        static_cast<std::size_t>(std::max(0, caba_cfg.store_buffer)));
    slot_span_cat_.assign(static_cast<std::size_t>(cfg_.schedulers), -1);
    slot_span_start_.assign(static_cast<std::size_t>(cfg_.schedulers), 0);
}

void
SmCore::launch(const Workload *kernel, int num_warps, int warp_global_base,
               int warp_global_stride)
{
    sched_.launch(kernel, num_warps, warp_global_base, warp_global_stride);
    kernel_ = kernel;
    profile_countdown_ = extras_.profile ? extras_.profile_interval : 0;
    trace::instant(trace::kWarp, trace::kPidSm, id_, "launch", 0, "warps",
                   static_cast<std::uint64_t>(num_warps));
}

// ---------------------------------------------------------------- events

void
SmCore::scheduleEvent(Cycle at, Event ev, Cycle now)
{
    CABA_CHECK(at > now && at - now < kRingSize, "event beyond ring reach");
    ring_[at % kRingSize].push_back(ev);
    ++outstanding_events_;
}

void
SmCore::processEvents(Cycle now)
{
    auto &bucket = ring_[now % kRingSize];
    if (bucket.empty())
        return;
    // Handlers never schedule same-cycle events, so the bucket can be
    // iterated in place and cleared (keeping its capacity).
    outstanding_events_ -= static_cast<int>(bucket.size());
    for (const Event &ev : bucket) {
        switch (ev.kind) {
          case Event::Kind::RegWriteback:
            sched_.clearPending(ev.warp, ev.regmask);
            if (ev.pipe == 1)
                --alu_inflight_;
            else if (ev.pipe == 2)
                --sfu_inflight_;
            break;
          case Event::Kind::LoadLineDone:
            ldst_.loadLineDone(ev.load_slot);
            break;
          case Event::Kind::FillDone:
            completeFill(ev.line, now);
            break;
        }
    }
    bucket.clear();
}

// ------------------------------------------------------------- the cycle

void
SmCore::cycle(Cycle now)
{
    mem_port_used_ = false;
    sfu_port_used_ = false;

    tickProfileTrigger(now);
    processEvents(now);
    reapAssistWarps(now);
    retryPendingFills(now);
    ldst_stalled_this_cycle_ = ldst_.drain(now);
    sched_.decodeCycle();
    issueStage(now);
}

// ------------------------------------------------------------ LDST hooks

void
SmCore::commitStore(Addr line)
{
    std::uint8_t buf[kLineSize];
    kernel_->outputLine(line, buf);
    backing_->write(line, buf);
}

bool
SmCore::onLoadHit(Addr line, int load_slot, Cycle now)
{
    if (design_.l1_tag_factor > 1 && design_.usesCaba() &&
        !model_->lookup(line).isUncompressed()) {
        // Compressed L1 (Section 6.5): every hit pays a decompression
        // assist warp. AWT full means the line replays next cycle.
        return triggerDecompress(line, AssistPurpose::DecompressHit,
                                 static_cast<std::uint64_t>(load_slot), now);
    }
    Event ev;
    ev.kind = Event::Kind::LoadLineDone;
    ev.load_slot = load_slot;
    scheduleEvent(now + cfg_.l1_latency, ev, now);
    return true;
}

void
SmCore::routeStore(Addr line, bool full_line, Cycle now)
{
    if (design_.usesCaba()) {
        // A newer store to a line whose compression is still in flight
        // supersedes it: kill the stale assist warp (Section 3.4) and
        // recompress the fresh contents.
        if (const PendingStore *stale = comp_stores_.find(line)) {
            awc_.killByToken(stale->token, AssistPurpose::Compress);
            trace::instant(trace::kAssistWarp, trace::kPidAssist, id_,
                           "kill_compress", now, "line", line);
            comp_stores_.erase(line);
            ++n_.stale_compressions_killed;
        }
        if (static_cast<int>(comp_stores_.size()) <
                awc_.config().store_buffer &&
            awc_.hasRoom()) {
            const std::uint64_t token = next_store_token_++;
            comp_stores_[line] = {token, full_line};
            AssistWarp aw;
            aw.priority = awc_.config().compress_low_priority
                ? AssistPriority::Low : AssistPriority::High;
            aw.purpose = AssistPurpose::Compress;
            aw.code = &aws_->compressRoutine(design_.algo);
            aw.line = line;
            aw.token = token;
            aw.spawned = now;
            const bool ok = awc_.trigger(std::move(aw));
            CABA_CHECK(ok, "AWT trigger failed despite hasRoom");
            trace::instant(trace::kAssistWarp, trace::kPidAssist, id_,
                           "spawn_compress", now, "line", line);
            ++n_.stores_buffered;
        } else {
            // Buffer overflow: release uncompressed (Section 4.2.2,
            // step 4).
            ++n_.store_buffer_overflows;
            emitStoreRequest(line, full_line, false, now);
        }
    } else {
        emitStoreRequest(line, full_line, design_.xbarCompressed(), now);
    }
}

void
SmCore::emitStoreRequest(Addr line, bool full_line, bool compressed_ok,
                         Cycle now)
{
    MemRequest req;
    req.id = next_req_id_++;
    req.line = line;
    req.is_write = true;
    req.full_line = full_line;
    req.src_sm = id_;
    if (compressed_ok && design_.xbarCompressed()) {
        const ImageSummary img = model_->lookup(line);
        req.payload_bytes = img.size;
        req.compressed = !img.isUncompressed();
        req.encoding = img.encoding;
        ++n_.stores_sent_compressed;
        if (design_.decompress == DecompressSite::L1Hw)
            ++n_.hw_store_compressions;
    } else {
        req.payload_bytes = kLineSize;
        ++n_.stores_sent_uncompressed;
    }
    ldst_.out().push_back(req);
    if (audit_)
        audit_->onInject(req, now);
}

bool
SmCore::triggerDecompress(Addr line, AssistPurpose purpose,
                          std::uint64_t token, Cycle now)
{
    const ImageSummary img = model_->lookup(line);
    AssistWarp aw;
    aw.priority = awc_.config().decompress_high_priority
        ? AssistPriority::High : AssistPriority::Low;
    aw.purpose = purpose;
    aw.code = &aws_->decompressRoutine(design_.algo, img.encoding);
    aw.line = line;
    aw.token = token;
    aw.spawned = now;
    const bool ok = awc_.trigger(std::move(aw));
    if (ok) {
        trace::instant(trace::kAssistWarp, trace::kPidAssist, id_,
                       "spawn_decompress", now, "line", line);
    }
    return ok;
}

void
SmCore::maybePrefetch(Addr line, int stream, Cycle now)
{
    if (!extras_.prefetch || stream < 0)
        return;
    // Stride assist warp (Section 7.2): computes the lookahead address
    // and issues a prefetch, deployed at low priority so it only uses
    // idle slots.
    const Addr pf_line =
        line + static_cast<Addr>(extras_.prefetch_lookahead) * kLineSize;
    AssistWarp aw;
    aw.priority = AssistPriority::Low;
    aw.purpose = AssistPurpose::Prefetch;
    aw.code = &aws_->prefetchRoutine();
    aw.line = pf_line;
    aw.token = 0;
    aw.spawned = now;
    if (awc_.trigger(std::move(aw))) {
        ++n_.prefetch_warps;
        trace::instant(trace::kAssistWarp, trace::kPidAssist, id_,
                       "spawn_prefetch", now, "line", pf_line);
    }
}

// ------------------------------------------------------------ CABA hooks

void
SmCore::reapAssistWarps(Cycle now)
{
    if (awc_.table().empty())
        return;
    reaped_.clear();
    awc_.reapFinished(now, &reaped_);
    for (const AssistWarp &aw : reaped_) {
        if (trace::on(trace::kAssistWarp)) {
            // One span per assist warp, from spawn to completion.
            const Cycle dur = now > aw.spawned ? now - aw.spawned : 1;
            trace::complete(trace::kAssistWarp, trace::kPidAssist, id_,
                            purposeName(aw.purpose), aw.spawned, dur, "line",
                            aw.line);
        }
        switch (aw.purpose) {
          case AssistPurpose::DecompressFill:
            ++n_.caba_decompressions;
            completeFill(aw.line, now);
            break;
          case AssistPurpose::DecompressHit:
            ++n_.caba_hit_decompressions;
            ldst_.loadLineDone(static_cast<int>(aw.token));
            break;
          case AssistPurpose::Compress: {
            ++n_.caba_compressions;
            const PendingStore *ps = comp_stores_.find(aw.line);
            CABA_CHECK(ps != nullptr && ps->token == aw.token,
                       "orphan compress warp");
            emitStoreRequest(aw.line, ps->full_line, true, now);
            comp_stores_.erase(aw.line);
            break;
          }
          case AssistPurpose::Memoize:
            break;
          case AssistPurpose::Prefetch:
            // Issue the prefetch if it is useful and resources allow.
            if (ldst_.issuePrefetch(aw.line, now))
                ++n_.prefetches_issued;
            else
                ++n_.prefetches_dropped;
            break;
          case AssistPurpose::Profile:
            // Profiling assist warp (framework-paper generalization):
            // on completion it samples the resident warps' stall
            // vectors into distributions.
            ++n_.profile_samples;
            sampleStallVector();
            break;
        }
    }
}

void
SmCore::retryPendingFills(Cycle now)
{
    while (!pending_fills_.empty()) {
        const Addr line = pending_fills_.front();
        if (!triggerDecompress(line, AssistPurpose::DecompressFill, 0, now))
            return;
        pending_fills_.pop_front();
    }
}

void
SmCore::completeFill(Addr line, Cycle now)
{
    (void)now;
    const int bytes = design_.l1_tag_factor > 1
        ? model_->compressedSize(line) : kLineSize;
    ldst_.completeFill(line, bytes);
}

void
SmCore::deliver(const MemRequest &reply, Cycle now)
{
    if (audit_)
        audit_->onRetire(reply);
    ++n_.fills;
    n_.fill_latency_total += now - reply.created;
    fill_latency_dist_.record(now - reply.created);
    if (reply.compressed) {
        switch (design_.decompress) {
          case DecompressSite::L1Caba:
            ++n_.fills_compressed;
            if (!triggerDecompress(reply.line, AssistPurpose::DecompressFill,
                                   0, now)) {
                pending_fills_.push_back(reply.line);
            }
            return;
          case DecompressSite::L1Hw: {
            Event ev;
            ev.kind = Event::Kind::FillDone;
            ev.line = reply.line;
            const int lat =
                std::max(1, getCodec(design_.algo).hwDecompressLatency());
            scheduleEvent(now + lat, ev, now);
            ++n_.hw_l1_decompressions;
            return;
          }
          case DecompressSite::Free:
          case DecompressSite::MemCtrl:
          case DecompressSite::None:
            break;
        }
    }
    completeFill(reply.line, now);
}

// ------------------------------------------------------------ issue

bool
SmCore::tryIssueRegular(int warp, Cycle now)
{
    WarpState &w = sched_.warp(warp);
    const DecodedInst di = w.ibuf.front();
    const Instruction &inst = *di.inst;

    switch (inst.op) {
      case Opcode::AluInt:
      case Opcode::AluFp:
      case Opcode::Mov: {
        if (alu_inflight_ >= cfg_.alu_inflight_max) {
            slot_comp_block_ = true;
            return false;
        }
        ++alu_inflight_;
        Event ev;
        ev.warp = warp;
        ev.pipe = 1;
        if (inst.dst >= 0) {
            ev.regmask = std::uint64_t{1} << inst.dst;
            w.pending_regs |= ev.regmask;
        }
        scheduleEvent(now + cfg_.alu_latency, ev, now);
        ++n_.issued_alu;
        break;
      }
      case Opcode::Sfu: {
        if (sfu_inflight_ >= cfg_.sfu_inflight_max || sfu_port_used_) {
            slot_comp_block_ = true;
            return false;
        }
        sfu_port_used_ = true;
        // Memoization (Section 7.1): a fraction of SFU computations hit
        // the shared-memory LUT and complete at shared-memory latency.
        bool memo_hit = false;
        if (extras_.memoize) {
            memo_hit = rng_.chance(kernel_->app().memo_hit_rate);
            AssistWarp aw;
            aw.priority = AssistPriority::Low;
            aw.purpose = AssistPurpose::Memoize;
            aw.code = &aws_->memoizeRoutine();
            aw.spawned = now;
            if (awc_.trigger(std::move(aw))) {
                ++n_.memoize_warps;
                trace::instant(trace::kAssistWarp, trace::kPidAssist, id_,
                               "spawn_memoize", now);
            }
        }
        Event ev;
        ev.warp = warp;
        if (inst.dst >= 0) {
            ev.regmask = std::uint64_t{1} << inst.dst;
            w.pending_regs |= ev.regmask;
        }
        if (memo_hit) {
            ev.pipe = 0;
            scheduleEvent(now + cfg_.shmem_latency, ev, now);
            ++n_.memo_hits;
        } else {
            ++sfu_inflight_;
            ev.pipe = 2;
            scheduleEvent(now + cfg_.sfu_latency, ev, now);
        }
        ++n_.issued_sfu;
        break;
      }
      case Opcode::LdShared:
      case Opcode::StShared: {
        if (mem_port_used_) {
            slot_mem_block_ = true;
            return false;
        }
        mem_port_used_ = true;
        if (inst.op == Opcode::LdShared && inst.dst >= 0) {
            Event ev;
            ev.warp = warp;
            ev.regmask = std::uint64_t{1} << inst.dst;
            w.pending_regs |= ev.regmask;
            w.pending_mem_regs |= ev.regmask;
            scheduleEvent(now + cfg_.shmem_latency, ev, now);
        }
        ++n_.issued_shmem;
        break;
      }
      case Opcode::LdGlobal:
      case Opcode::StGlobal: {
        const bool is_store = inst.op == Opcode::StGlobal;
        if (mem_port_used_ || ldst_.busy() ||
            (!is_store && !ldst_.hasFreeLoadSlot())) {
            slot_mem_block_ = true;
            return false;
        }
        mem_port_used_ = true;
        MemAccess &access = ldst_.beginAccess(is_store, warp);
        kernel_->genLines(inst.stream, w.global_id, di.iter, &access);
        if (!is_store) {
            std::uint64_t mask = 0;
            if (inst.dst >= 0)
                mask = std::uint64_t{1} << inst.dst;
            if (access.lines.empty()) {
                // Degenerate: nothing to fetch.
                ldst_.cancel();
            } else {
                w.pending_regs |= mask;
                w.pending_mem_regs |= mask;
                ldst_.armLoad(warp, mask);
                maybePrefetch(access.lines.front(), inst.stream, now);
            }
            ++n_.issued_global_loads;
        } else {
            ldst_.armStore();
            if (access.lines.empty())
                ldst_.cancel();
            ++n_.issued_global_stores;
        }
        n_.global_lines_accessed += access.lines.size();
        break;
      }
      case Opcode::Branch:
        ++n_.issued_branches;
        break;
      case Opcode::Exit:
        w.done = true;
        sched_.noteWarpRetired();
        ++n_.warps_retired;
        trace::instant(trace::kWarp, trace::kPidSm, id_, "warp_retire", now,
                       "warp", static_cast<std::uint64_t>(w.global_id));
        break;
    }

    w.ibuf.pop();
    return true;
}

bool
SmCore::tryIssueAssist(AssistWarp &aw, Cycle now)
{
    const AssistInstr &ai = (*aw.code)[static_cast<std::size_t>(aw.next)];
    if (ai.is_mem) {
        if (mem_port_used_) {
            slot_mem_block_ = true;
            return false;
        }
        mem_port_used_ = true;
        ++n_.assist_mem_issued;
    } else {
        if (alu_inflight_ >= cfg_.alu_inflight_max) {
            slot_comp_block_ = true;
            return false;
        }
        ++alu_inflight_;
        Event ev;
        ev.pipe = 1;
        scheduleEvent(now + cfg_.alu_latency, ev, now);
        ++n_.assist_alu_issued;
    }
    aw.ready_at = now + ai.latency;
    ++aw.next;
    ++n_.assist_instructions;
    ++aw_slots_[static_cast<std::size_t>(aw.purpose)];
    return true;
}

void
SmCore::issueStage(Cycle now)
{
    if (!kernel_)
        return;
    // Slot-accounting gate, snapshotted before any issue can retire a
    // warp: the cycle a warp issues its Exit still charges its slots
    // (skipIdle sees the same condition on frozen post-cycle state).
    const bool acct = sched_.liveWarps() > 0 || !awc_.table().empty();
    for (int s = 0; s < cfg_.schedulers; ++s) {
        bool issued = false;
        bool aw_issued = false;
        slot_mem_block_ = false;
        slot_comp_block_ = false;

        // 1. High-priority assist warps take precedence (Section 3.2.3).
        auto &table = awc_.table();
        const int tsize = static_cast<int>(table.size());
        for (int k = 0; k < tsize && !issued; ++k) {
            AssistWarp &aw = table[static_cast<std::size_t>(
                (assist_rr_ + k) % tsize)];
            if (aw.priority != AssistPriority::High || aw.finishedIssuing() ||
                aw.ready_at > now) {
                continue;
            }
            if (tryIssueAssist(aw, now)) {
                issued = true;
                aw_issued = true;
                assist_rr_ = (assist_rr_ + k + 1) % std::max(tsize, 1);
            }
        }

        // 2. Regular warps: greedy-then-oldest (Table 1). While
        // the memory port is taken or the LDST unit is busy, a ready
        // warp whose head is a global memory op is refused by
        // tryIssueRegular without side effects, so the pick passes it
        // over and the slot takes the same memory-structural flags.
        if (!issued) {
            const std::uint64_t futile = mem_port_used_ || ldst_.busy()
                ? sched_.headGlobalMask() : 0;
            bool futile_seen = false;
            issued = sched_.pickAndIssue(
                s, futile, &futile_seen,
                [&](int w) { return tryIssueRegular(w, now); });
            if (futile_seen)
                slot_mem_block_ = true;
        }

        // 3. Low-priority assist warps fill idle slots (Section 3.4).
        for (int k = 0; k < tsize && !issued; ++k) {
            AssistWarp &aw = table[static_cast<std::size_t>(
                (assist_rr_ + k) % tsize)];
            if (aw.priority != AssistPriority::Low || aw.finishedIssuing() ||
                aw.ready_at > now || !awc_.eligible(aw)) {
                continue;
            }
            if (tryIssueAssist(aw, now)) {
                issued = true;
                aw_issued = true;
                ++n_.assist_idle_slot_issues;
            }
        }

        awc_.noteIssueSlot(issued);
        if (acct) {
            const int cat = issued
                ? (aw_issued ? kSlotAwIssued : kSlotIssued)
                : classifySlotStall(s);
            recordSlots(s, cat, 1, now);
        }
    }
    if (acct)
        ++accounted_cycles_;
    // Retired SM: close any open trace span at the retirement boundary.
    if (sched_.liveWarps() == 0 && awc_.table().empty())
        closeSlotSpans(now);
}

int
SmCore::classifySlotStall(int s) const
{
    // Structural hazards seen by this slot's issue attempts first, then
    // scoreboard state, then idle.
    if (slot_mem_block_ || ldst_stalled_this_cycle_)
        return kSlotMemStruct;
    if (slot_comp_block_)
        return kSlotCompStruct;
    return classifySlotQuiescent(s);
}

int
SmCore::classifySlotQuiescent(int s) const
{
    // Classification from the scheduler bitsets alone — exactly what a
    // no-attempt slot reduces to, and what skipIdle replays over frozen
    // state for skipped cycles.
    const std::uint64_t parity = sched_.parityMask(s);
    const std::uint64_t blocked = sched_.blockedMask() & parity;
    if ((blocked & sched_.memBlockedMask()) != 0)
        return kSlotMemData;
    if (blocked != 0)
        return kSlotScoreboard;
    if ((sched_.liveMask() & parity) != 0)
        return kSlotIbufEmpty;
    return kSlotIdle;
}

void
SmCore::recordSlots(int s, int cat, std::uint64_t k, Cycle from)
{
    slot_counts_[static_cast<std::size_t>(cat)] += k;
    const std::size_t si = static_cast<std::size_t>(s);
    if (!trace::on(trace::kSlots)) {
        slot_span_cat_[si] = -1;
        return;
    }
    // One span per maximal run of same-category cycles.
    if (cat != slot_span_cat_[si]) {
        if (slot_span_cat_[si] >= 0) {
            trace::complete(trace::kSlots, trace::kPidSlots,
                            id_ * cfg_.schedulers + s,
                            kSlotCategoryNames[slot_span_cat_[si]],
                            slot_span_start_[si],
                            from - slot_span_start_[si]);
        }
        slot_span_cat_[si] = cat;
        slot_span_start_[si] = from;
    }
}

void
SmCore::closeSlotSpans(Cycle now)
{
    if (!trace::on(trace::kSlots))
        return;
    for (int s = 0; s < cfg_.schedulers; ++s) {
        const std::size_t si = static_cast<std::size_t>(s);
        if (slot_span_cat_[si] >= 0) {
            trace::complete(trace::kSlots, trace::kPidSlots,
                            id_ * cfg_.schedulers + s,
                            kSlotCategoryNames[slot_span_cat_[si]],
                            slot_span_start_[si],
                            now - slot_span_start_[si]);
            slot_span_cat_[si] = -1;
        }
    }
}

// ------------------------------------------------- profiling assist warp

void
SmCore::tickProfileTrigger(Cycle now)
{
    if (!kernel_ || !extras_.profile || sched_.liveWarps() == 0)
        return;
    if (--profile_countdown_ > 0)
        return;
    spawnProfileWarp(now);
    profile_countdown_ = extras_.profile_interval;
}

void
SmCore::spawnProfileWarp(Cycle now)
{
    if (!awc_.hasRoom()) {
        ++n_.profile_drops;
        return;
    }
    AssistWarp aw;
    aw.priority = AssistPriority::Low;
    aw.purpose = AssistPurpose::Profile;
    aw.code = &aws_->profileRoutine();
    aw.line = 0;
    aw.token = 0;
    aw.spawned = now;
    const bool ok = awc_.trigger(std::move(aw));
    CABA_CHECK(ok, "AWT trigger failed despite hasRoom");
    ++n_.profile_warps;
    trace::instant(trace::kAssistWarp, trace::kPidAssist, id_,
                   "spawn_profile", now);
}

void
SmCore::sampleStallVector()
{
    const std::uint64_t blocked = sched_.blockedMask();
    profile_ready_dist_.record(
        static_cast<std::uint64_t>(std::popcount(sched_.issuableMask())));
    profile_blocked_dist_.record(
        static_cast<std::uint64_t>(std::popcount(blocked)));
    profile_mem_blocked_dist_.record(static_cast<std::uint64_t>(
        std::popcount(blocked & sched_.memBlockedMask())));
}

// ------------------------------------------------------------ quiescence

Cycle
SmCore::nextWork(Cycle now) const
{
    if (done())
        return kNoWork;
    // Fills awaiting AWT room retry, and burn an AWT rejection counter,
    // on every ticked cycle: the skip must not hide that.
    if (!pending_fills_.empty())
        return now;
    // A busy LDST unit drains next cycle unless it is in a pure replay
    // stall, which only a fill (a reply, a FillDone ring event or a
    // decompression assist warp's completion) or an out-queue take
    // ends; each wakes the core. Sleeping through it skips nothing
    // downstream: the crossbars and partitions cycle every clock. An
    // idle unit with queued requests still pins `now`.
    const bool replay = ldst_.busy() && ldst_.replayStalled();
    if (ldst_.busy() ? !replay : !ldst_.out().empty())
        return now;
    // A decodable warp fills its ibuf; a scoreboard-ready warp issues,
    // unless it needs the replay-stalled LDST unit (its attempt fails
    // without effect).
    if (kernel_) {
        const std::uint64_t can_issue = replay
            ? sched_.issuableMask() & ~sched_.headGlobalMask()
            : sched_.issuableMask();
        if (sched_.anyDecodable() || can_issue != 0)
            return now;
    }
    Cycle e = kNoWork;
    for (const AssistWarp &aw : awc_.table()) {
        if (!aw.finishedIssuing() && aw.priority == AssistPriority::Low) {
            // Low-priority eligibility depends on the sliding issue
            // window, which every cycle ages. Never skip over it.
            return now;
        }
        // High-priority warps issue — and finished warps reap — once
        // ready_at arrives.
        const Cycle t = aw.ready_at > now ? aw.ready_at : now;
        if (t <= now)
            return now;
        e = std::min(e, t);
    }
    if (outstanding_events_ > 0) {
        for (Cycle t = now; t < now + kRingSize; ++t) {
            if (!ring_[t % kRingSize].empty()) {
                e = std::min(e, t);
                break;
            }
        }
    }
    if (kernel_ && extras_.profile && sched_.liveWarps() > 0) {
        // The countdown reaches zero (and spawns) on its
        // profile_countdown_'th tick counting this one.
        e = std::min(e, now + static_cast<Cycle>(profile_countdown_) - 1);
    }
    return e;
}

void
SmCore::skipIdle(Cycle from, Cycle to)
{
    const std::uint64_t k = to - from;
    // issueStage runs (and feeds the throttle window) every cycle once a
    // kernel is bound, even after all warps retire.
    if (kernel_)
        awc_.skipIdleSlots(k * static_cast<std::uint64_t>(cfg_.schedulers));
    // The profile countdown ages on every cycle with live warps; the
    // spawn cycle itself is always ticked (nextWork pins it), so at
    // least one tick must remain after the skip.
    if (kernel_ && extras_.profile && sched_.liveWarps() > 0) {
        profile_countdown_ -= static_cast<int>(k);
        CABA_CHECK(profile_countdown_ >= 1,
                   "quiescence skip jumped over a profile-AW spawn");
    }
    if (sched_.liveWarps() == 0 && awc_.table().empty())
        return;     // retired SM: issueStage accounts nothing.
    // nextWork permits two kinds of stretch. In an LDST replay stall
    // every cycle's drain flags a structural stall, so every slot is
    // memory structural. Otherwise the stretch is quiescent: no issue
    // attempt can succeed (nothing else is ready, no assist warp can
    // issue), so every slot classifies from frozen state — identical
    // for each skipped cycle and exactly what classifySlotStall would
    // have counted.
    const bool replay = ldst_.busy();
    CABA_CHECK(!replay || ldst_.replayStalled(),
               "skipped cycles of an LDST unit that could drain");
    accounted_cycles_ += k;
    for (int s = 0; s < cfg_.schedulers; ++s)
        recordSlots(s, replay ? kSlotMemStruct : classifySlotQuiescent(s),
                    k, from);
}

StatSet
SmCore::stats() const
{
    StatSet s;
    s.setCounter("issued_alu", n_.issued_alu);
    s.setCounter("issued_sfu", n_.issued_sfu);
    s.setCounter("issued_shmem", n_.issued_shmem);
    s.setCounter("issued_branches", n_.issued_branches);
    s.setCounter("issued_global_loads", n_.issued_global_loads);
    s.setCounter("issued_global_stores", n_.issued_global_stores);
    s.setCounter("global_lines_accessed", n_.global_lines_accessed);
    s.setCounter("warps_retired", n_.warps_retired);
    s.setCounter("l1_load_hits", ldst_.loadHits());
    s.setCounter("l1_load_misses", ldst_.loadMisses());
    s.setCounter("mshr_merges", ldst_.mshrMerges());
    s.setCounter("assist_alu_issued", n_.assist_alu_issued);
    s.setCounter("assist_mem_issued", n_.assist_mem_issued);
    s.setCounter("assist_instructions", n_.assist_instructions);
    s.setCounter("assist_idle_slot_issues", n_.assist_idle_slot_issues);
    s.setCounter("fills", n_.fills);
    s.setCounter("fill_latency_total", n_.fill_latency_total);
    s.setCounter("fills_compressed", n_.fills_compressed);
    s.setCounter("caba_decompressions", n_.caba_decompressions);
    s.setCounter("caba_hit_decompressions", n_.caba_hit_decompressions);
    s.setCounter("caba_compressions", n_.caba_compressions);
    s.setCounter("hw_l1_decompressions", n_.hw_l1_decompressions);
    s.setCounter("hw_store_compressions", n_.hw_store_compressions);
    s.setCounter("stores_sent_compressed", n_.stores_sent_compressed);
    s.setCounter("stores_sent_uncompressed", n_.stores_sent_uncompressed);
    s.setCounter("stores_buffered_for_compression", n_.stores_buffered);
    s.setCounter("store_buffer_overflows", n_.store_buffer_overflows);
    s.setCounter("stale_compressions_killed", n_.stale_compressions_killed);
    s.setCounter("memo_hits", n_.memo_hits);
    s.setCounter("memoize_warps", n_.memoize_warps);
    s.setCounter("prefetch_warps", n_.prefetch_warps);
    s.setCounter("prefetches_issued", n_.prefetches_issued);
    s.setCounter("prefetches_dropped", n_.prefetches_dropped);
    // Exact slot taxonomy (DESIGN.md section 11): fig01 reads these.
    for (int c = 0; c < kNumSlotCategories; ++c)
        s.setCounter(kSlotCategoryNames[c],
                     slot_counts_[static_cast<std::size_t>(c)]);
    s.setCounter("slot_cycles_accounted", accounted_cycles_);
    s.setCounter("aw_slots_decompress_fill", aw_slots_[0]);
    s.setCounter("aw_slots_decompress_hit", aw_slots_[1]);
    s.setCounter("aw_slots_compress", aw_slots_[2]);
    s.setCounter("aw_slots_memoize", aw_slots_[3]);
    s.setCounter("aw_slots_prefetch", aw_slots_[4]);
    s.setCounter("aw_slots_profile", aw_slots_[5]);
    s.setCounter("profile_warps", n_.profile_warps);
    s.setCounter("profile_samples", n_.profile_samples);
    s.setCounter("profile_drops", n_.profile_drops);
    s.dist("fill_latency").merge(fill_latency_dist_);
    s.dist("aw_profile_ready_warps").merge(profile_ready_dist_);
    s.dist("aw_profile_blocked_warps").merge(profile_blocked_dist_);
    s.dist("aw_profile_mem_blocked_warps").merge(profile_mem_blocked_dist_);
    return s;
}

void
SmCore::audit(Audit &a, bool at_drain) const
{
    ldst_.audit(a, at_drain);
    awc_.audit(a);
    // Taxonomy exactness (holds at every audit, not only at drain):
    // every accounted cycle charges each scheduler slot exactly once.
    std::uint64_t slot_sum = 0;
    for (const std::uint64_t c : slot_counts_)
        slot_sum += c;
    a.checkEq("sm", "slot categories sum to cycles x issue slots",
              slot_sum,
              accounted_cycles_ *
                  static_cast<std::uint64_t>(cfg_.schedulers));
    a.checkEq("sm", "sync slots stay zero (ISA has no barriers)",
              slot_counts_[kSlotSync], 0);
    std::uint64_t aw_slot_sum = 0;
    for (const std::uint64_t c : aw_slots_)
        aw_slot_sum += c;
    a.checkEq("sm", "per-purpose AW slots sum to AW-issued slots",
              aw_slot_sum, slot_counts_[kSlotAwIssued]);
    if (!at_drain)
        return;
    // Every reply delivered is either a demand miss that sent a request
    // (merges ride an existing MSHR) or an issued prefetch.
    a.checkEq("sm", "fills == misses - merges + prefetches at drain",
              n_.fills,
              ldst_.loadMisses() - ldst_.mshrMerges() +
                  n_.prefetches_issued);
    a.checkTrue("sm", "no buffered compress stores at drain",
                comp_stores_.empty());
    a.checkTrue("sm", "no queued fills at drain", pending_fills_.empty());
    a.checkEq("sm", "no outstanding pipeline events at drain",
              static_cast<std::uint64_t>(outstanding_events_), 0);
}

bool
SmCore::done() const
{
    return sched_.liveWarps() == 0 && outstanding_events_ == 0 &&
           ldst_.drained() && comp_stores_.empty() &&
           pending_fills_.empty() && awc_.table().empty();
}

} // namespace caba

#include "mem/partition.h"


#include "common/log.h"
#include "common/trace.h"

namespace caba {

MemoryPartition::MemoryPartition(int id, const PartitionConfig &cfg,
                                 const DesignConfig &design,
                                 CompressionModel *model)
    : id_(id), cfg_(cfg), design_(design), model_(model),
      l2_({cfg.l2.size_bytes, cfg.l2.assoc, design.l2_tag_factor}),
      dram_(cfg.dram, id), md_(cfg.md_size_bytes, cfg.md_assoc),
      tlb_(cfg.tlb_size_bytes, 4, cfg.tlb_page_lines)
{
    if (design_.usesCompression())
        CABA_CHECK(model_, "compressed design needs a compression model");
    // Reads in flight are bounded by the read queue plus the commands
    // the channel has issued; most carry a single waiter.
    const auto reads = static_cast<std::size_t>(cfg.dram.queue_capacity);
    dram_reads_.reserve(reads);
    line_read_.reserve(reads);
    waiters_.reserve(reads);
}

bool
MemoryPartition::canAccept() const
{
    return static_cast<int>(l2_pipe_.size()) < 32;
}

void
MemoryPartition::accept(const MemRequest &req, Cycle now)
{
    CABA_CHECK(canAccept(), "partition ingress overflow");
    if (audit_)
        audit_->onStage(req, ReqStage::AtPartition);
    l2_pipe_.emplace_back(now + cfg_.l2_latency, req);
    (req.is_write ? n_.stores_in : n_.loads_in) += 1;
    if (!req.is_write)
        n_.ingress_latency_total += now - req.created;
}

int
MemoryPartition::payloadBytes(Addr line)
{
    if (design_.l2_tag_factor > 1)
        return model_->compressedSize(line);
    return kLineSize;
}

std::pair<int, int>
MemoryPartition::metadataCost(Addr line, Cycle now, bool is_write)
{
    // Page walk: a TLB miss costs one page-table burst in EVERY design
    // (paper footnote 4).
    int bursts = 0;
    bool tlb_missed = false;
    if (cfg_.model_tlb && !tlb_.access(line)) {
        tlb_missed = true;
        ++n_.tlb_misses;
        bursts += 1;
    }
    if (!design_.mdOverhead())
        return {0, bursts};
    ++n_.md_lookups;
    // A write changes the line's burst count, so the MD line is updated
    // (dirtied); a dirty MD victim is a metadata writeback that costs a
    // real access to reserved DRAM.
    bool md_writeback = false;
    if (!md_.access(line, is_write, &md_writeback)) {
        ++n_.md_misses;
        if (trace::on(trace::kCache)) {
            trace::instant(trace::kCache, trace::kPidCache, 200 + id_,
                           "md_miss", now, "line", line);
        }
        if (tlb_missed) {
            // The metadata fetch rides along with the page-table walk
            // (both live in reserved DRAM near the page structures).
            ++n_.md_piggybacked;
        } else {
            bursts += cfg_.md_miss_bursts;
        }
    }
    if (md_writeback) {
        ++n_.md_writebacks;
        bursts += cfg_.md_miss_bursts;
    }
    return {cfg_.md_miss_latency, bursts};
}

void
MemoryPartition::issueDramRead(const MemRequest &req, Cycle now)
{
    if (audit_)
        audit_->onStage(req, ReqStage::DramWait);
    // Merge onto an outstanding read of the same line if one exists.
    if (const std::uint64_t *id = line_read_.find(req.line)) {
        ListPool<MemRequest>::List *waiting = dram_reads_.find(*id);
        CABA_CHECK(waiting, "line merge onto an unknown DRAM read");
        waiters_.append(*waiting, req);
        ++n_.dram_read_merges;
        return;
    }
    if (!dram_.canAccept(false)) {
        dram_stalled_.push_back(req);
        ++n_.dram_stall_events;
        return;
    }
    const auto [extra_lat, extra_bursts] =
        metadataCost(req.line, now, false);
    DramCmd cmd;
    cmd.id = next_dram_id_++;
    cmd.line = req.line;
    cmd.is_write = false;
    cmd.bursts = design_.memCompressed() ? model_->bursts(req.line)
                                          : kBurstsPerLine;
    cmd.extra_latency = extra_lat;
    cmd.extra_bursts = extra_bursts;
    cmd.enqueued = now;
    dram_.enqueue(cmd);
    n_.transfer_bursts += static_cast<std::uint64_t>(cmd.bursts);
    if (fault_double_count_burst_) {
        // Seeded fault: the ledger charges this read twice, the way a
        // retry path that recounts would. The audit must notice.
        n_.transfer_bursts += static_cast<std::uint64_t>(cmd.bursts);
        fault_double_count_burst_ = false;
    }
    n_.transfer_bursts_uncompressed += kBurstsPerLine;
    line_read_[req.line] = cmd.id;
    waiters_.append(dram_reads_[cmd.id], req);
}

void
MemoryPartition::issueDramWrite(Addr line, Cycle now, bool partial_uncached)
{
    if (!dram_.canAccept(true)) {
        // Partial-ness is dropped for stalled writebacks; they are rare
        // and the difference is one burst.
        writeback_stalled_.push_back(line);
        return;
    }
    const auto [extra_lat, extra_bursts] = metadataCost(line, now, true);
    DramCmd cmd;
    cmd.id = next_dram_id_++;
    cmd.line = line;
    cmd.is_write = true;
    if (partial_uncached) {
        cmd.bursts = 1;
    } else {
        cmd.bursts = design_.memCompressed() ? model_->bursts(line)
                                              : kBurstsPerLine;
    }
    cmd.extra_latency = extra_lat;
    cmd.extra_bursts = extra_bursts;
    cmd.enqueued = now;
    dram_.enqueue(cmd);
    n_.transfer_bursts += static_cast<std::uint64_t>(cmd.bursts);
    n_.transfer_bursts_uncompressed += partial_uncached ? 1 : kBurstsPerLine;
    ++n_.dram_writes_issued;
    if (design_.decompress == DecompressSite::MemCtrl && !partial_uncached)
        ++n_.mc_compressions;
}

void
MemoryPartition::makeReply(const MemRequest &req, Cycle now, bool from_dram)
{
    MemRequest reply = req;
    reply.is_write = false;
    if (design_.xbarCompressed()) {
        const ImageSummary img = model_->lookup(req.line);
        reply.payload_bytes = img.size;
        reply.compressed = !img.isUncompressed();
        reply.encoding = img.encoding;
    } else {
        reply.payload_bytes = kLineSize;
        reply.compressed = false;
        reply.encoding = 0;
    }
    Cycle ready = now;
    if (design_.decompress == DecompressSite::MemCtrl && from_dram) {
        // HW-<algo>-Mem: dedicated logic expands the line at the MC
        // before it crosses the interconnect.
        ready += getCodec(design_.algo).hwDecompressLatency();
        ++n_.mc_decompressions;
    }
    if (audit_)
        audit_->onStage(reply, ReqStage::Replied);
    reply_wait_.emplace_back(ready, reply);
    ++n_.replies;
    n_.service_latency_total += now - req.created;
}

void
MemoryPartition::handleL2Ready(const MemRequest &req, Cycle now)
{
    if (!req.is_write) {
        if (l2_.access(req.line)) {
            if (trace::on(trace::kCache)) {
                trace::instant(trace::kCache, trace::kPidCache, 100 + id_,
                               "l2_hit", now, "line", req.line);
            }
            makeReply(req, now, false);
        } else {
            if (trace::on(trace::kCache)) {
                trace::instant(trace::kCache, trace::kPidCache, 100 + id_,
                               "l2_miss", now, "line", req.line);
            }
            issueDramRead(req, now);
        }
        return;
    }

    // Store path (write-back, write-allocate L2).
    ++n_.l2_store_accesses;
    if (req.full_line || l2_.contains(req.line)) {
        evicted_.clear();
        l2_.insert(req.line, payloadBytes(req.line), true, &evicted_);
        for (const Eviction &ev : evicted_) {
            if (ev.dirty)
                issueDramWrite(ev.line, now, false);
        }
        if (audit_)
            audit_->onRetire(req);  // absorbed by the L2 slice
        return;
    }

    // Partial store to a line absent from L2 (paper Section 4.2.2).
    if (design_.memCompressed()) {
        // Worst case: the destination is compressed in memory, so the
        // line must be fetched (and decompressed) before merging.
        ++n_.partial_store_fills;
        issueDramRead(req, now);
    } else {
        // Uncompressed memory: write through the dirty bytes directly.
        ++n_.partial_store_writethrough;
        issueDramWrite(req.line, now, true);
        if (audit_)
            audit_->onRetire(req);
    }
}

void
MemoryPartition::handleDramCompletion(const DramCompletion &done, Cycle now)
{
    if (done.is_write) {
        ++n_.dram_writes_done;
        return;
    }
    ListPool<MemRequest>::List *found = dram_reads_.find(done.id);
    CABA_CHECK(found, "unknown DRAM read completion");
    ListPool<MemRequest>::List waiting = *found;
    dram_reads_.erase(done.id);
    CABA_CHECK(!waiting.empty(), "DRAM read with no waiters");
    const Addr line = waiters_.value(waiting.head).line;
    line_read_.erase(line);

    bool dirty = false;
    for (std::int32_t n = waiting.head; n >= 0; n = waiters_.next(n))
        dirty = dirty || waiters_.value(n).is_write;
    evicted_.clear();
    l2_.insert(line, payloadBytes(line), dirty, &evicted_);
    for (const Eviction &ev : evicted_) {
        if (ev.dirty)
            issueDramWrite(ev.line, now, false);
    }
    // Neither path below issues a DRAM read, so the pool is stable
    // while the list is walked.
    for (std::int32_t n = waiting.head; n >= 0; n = waiters_.next(n)) {
        const MemRequest &w = waiters_.value(n);
        if (!w.is_write)
            makeReply(w, now, true);
        else if (audit_)
            audit_->onRetire(w);    // partial-store fill merged
    }
    waiters_.release(waiting);
}

void
MemoryPartition::cycle(Cycle now)
{
    dram_.cycle(now);

    done_.clear();
    dram_.drainCompleted(now, &done_);
    for (const DramCompletion &d : done_)
        handleDramCompletion(d, now);

    // Retry stalled writebacks and misses now that DRAM may have room.
    while (!writeback_stalled_.empty() && dram_.canAccept(true)) {
        const Addr line = writeback_stalled_.front();
        writeback_stalled_.pop_front();
        issueDramWrite(line, now, false);
    }
    while (!dram_stalled_.empty() && dram_.canAccept(false)) {
        const MemRequest req = dram_stalled_.front();
        dram_stalled_.pop_front();
        issueDramRead(req, now);
    }

    // One L2 port: a single request leaves the lookup pipe per cycle.
    if (!l2_pipe_.empty() && l2_pipe_.front().first <= now) {
        const MemRequest req = l2_pipe_.front().second;
        l2_pipe_.pop_front();
        handleL2Ready(req, now);
    }

    // Release replies whose MC-side latency elapsed.
    while (!reply_wait_.empty() && reply_wait_.front().first <= now) {
        replies_.push(reply_wait_.front().second);
        reply_wait_.pop_front();
    }
}

StatSet
MemoryPartition::stats() const
{
    StatSet s;
    s.setCounter("loads_in", n_.loads_in);
    s.setCounter("stores_in", n_.stores_in);
    s.setCounter("ingress_latency_total", n_.ingress_latency_total);
    s.setCounter("service_latency_total", n_.service_latency_total);
    s.setCounter("replies", n_.replies);
    s.setCounter("transfer_bursts", n_.transfer_bursts);
    s.setCounter("transfer_bursts_uncompressed",
                 n_.transfer_bursts_uncompressed);
    s.setCounter("md_lookups", n_.md_lookups);
    s.setCounter("md_misses", n_.md_misses);
    s.setCounter("md_piggybacked", n_.md_piggybacked);
    s.setCounter("md_writebacks", n_.md_writebacks);
    s.setCounter("tlb_misses", n_.tlb_misses);
    s.setCounter("dram_read_merges", n_.dram_read_merges);
    s.setCounter("dram_stall_events", n_.dram_stall_events);
    s.setCounter("dram_writes_issued", n_.dram_writes_issued);
    s.setCounter("dram_writes_done", n_.dram_writes_done);
    s.setCounter("mc_compressions", n_.mc_compressions);
    s.setCounter("mc_decompressions", n_.mc_decompressions);
    s.setCounter("l2_store_accesses", n_.l2_store_accesses);
    s.setCounter("partial_store_fills", n_.partial_store_fills);
    s.setCounter("partial_store_writethrough",
                 n_.partial_store_writethrough);
    s.set("md_capacity_bytes",
          static_cast<std::uint64_t>(cfg_.md_size_bytes));
    return s;
}

bool
MemoryPartition::busy() const
{
    return !l2_pipe_.empty() || !dram_stalled_.empty() ||
           !writeback_stalled_.empty() || !dram_reads_.empty() ||
           !replies_.empty() || !reply_wait_.empty() || dram_.busy();
}

void
MemoryPartition::audit(Audit &a, bool at_drain) const
{
    a.checkEq("l2", "hits + misses == accesses", l2_.hits() + l2_.misses(),
              l2_.accesses());
    a.checkEq("md", "hits + misses == accesses", md_.hits() + md_.misses(),
              md_.accesses());
    a.checkEq("tlb", "hits + misses == accesses",
              tlb_.hits() + tlb_.misses(), tlb_.accesses());
    a.checkEq("part", "md_lookups == MD cache accesses", n_.md_lookups,
              md_.accesses());
    a.checkLe("part", "dram writes done <= issued", n_.dram_writes_done,
              n_.dram_writes_issued);
    a.checkLe("part", "replies <= loads_in", n_.replies, n_.loads_in);
    // The transfer ledger counts bursts at enqueue; the channel's data
    // ledger counts them at issue, so enqueue leads issue until drain.
    a.checkLe("part", "dram data bursts <= transfer bursts",
              dram_.dataBursts(), n_.transfer_bursts);
    dram_.audit(a, at_drain);
    if (!at_drain)
        return;
    a.checkEq("part", "transfer bursts == dram data bursts at drain",
              n_.transfer_bursts, dram_.dataBursts());
    a.checkEq("part", "every load replied at drain", n_.loads_in,
              n_.replies);
    a.checkEq("part", "every DRAM write completed at drain",
              n_.dram_writes_issued, n_.dram_writes_done);
    a.checkTrue("part", "L2 pipe empty at drain", l2_pipe_.empty());
    a.checkTrue("part", "no stalled DRAM reads at drain",
                dram_stalled_.empty());
    a.checkTrue("part", "no stalled writebacks at drain",
                writeback_stalled_.empty());
    a.checkTrue("part", "no outstanding DRAM reads at drain",
                dram_reads_.empty() && line_read_.empty());
    a.checkTrue("part", "reply queues empty at drain",
                reply_wait_.empty() && replies_.empty());
}

double
MemoryPartition::dramBusUtilization(Cycle elapsed) const
{
    return dram_.busUtilization(elapsed);
}

} // namespace caba

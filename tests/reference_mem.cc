// Test-only copies; see reference_mem.h. The DRAM and crossbar bodies
// are the shipped implementations before bank-indexed FR-FCFS queues
// and head-of-line arbitration masks, less tracing and audit hooks. The
// DRAM scheduler window they once had is gone: it was checked to cover
// both queues, so it never shortened a scan. The compression model is
// the shipped one before its memo became a slot array, less its audit.
#include "reference_mem.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"

namespace caba {
namespace ref {

namespace {

/** 256B chunks striped across channels; this is the chunk's index in
 *  the channel's local address space. */
constexpr Addr kChunkBytes = 256;

} // namespace

DramChannel::DramChannel(const DramConfig &cfg)
    : cfg_(cfg), banks_(cfg.banks)
{
    CABA_CHECK(cfg_.banks > 0, "channel needs banks");
    CABA_CHECK(cfg_.burst_quarters > 0, "bad burst time");
    CABA_CHECK(cfg_.write_drain_low < cfg_.write_drain_high &&
               cfg_.write_drain_high <= cfg_.write_queue_capacity,
               "bad write-drain marks");
}

int
DramChannel::bankOf(Addr line) const
{
    // Channel-local layout [row | bank | column]: each bank owns
    // row_bytes of contiguous channel addresses per row, so a sweeping
    // stream keeps one open row per bank while striping across banks.
    const Addr chunk = line / kChunkBytes /
                       static_cast<Addr>(cfg_.channels);
    const Addr chunks_per_col =
        static_cast<Addr>(cfg_.row_bytes) / kChunkBytes;
    return static_cast<int>((chunk / chunks_per_col) % cfg_.banks);
}

std::int64_t
DramChannel::rowOf(Addr line) const
{
    const Addr chunk = line / kChunkBytes /
                       static_cast<Addr>(cfg_.channels);
    const Addr chunks_per_col =
        static_cast<Addr>(cfg_.row_bytes) / kChunkBytes;
    return static_cast<std::int64_t>(chunk / chunks_per_col / cfg_.banks);
}

bool
DramChannel::canAccept(bool is_write) const
{
    if (is_write)
        return static_cast<int>(write_q_.size()) <
               cfg_.write_queue_capacity;
    return static_cast<int>(read_q_.size()) < cfg_.queue_capacity;
}

void
DramChannel::enqueue(DramCmd cmd)
{
    CABA_CHECK(canAccept(cmd.is_write), "DRAM queue overflow");
    cmd.bank = bankOf(cmd.line);
    cmd.row = rowOf(cmd.line);
    Bank &b = banks_[static_cast<std::size_t>(cmd.bank)];
    if (b.open_row == cmd.row)
        ++b.open_matches;
    if (cmd.is_write) {
        write_q_.push_back(cmd);
        ++writes_enqueued_;
    } else {
        read_q_.push_back(cmd);
        ++reads_enqueued_;
        read_queue_depth_.record(read_q_.size());
    }
}

void
DramChannel::recountOpenMatches(int bank)
{
    Bank &b = banks_[static_cast<std::size_t>(bank)];
    b.open_matches = 0;
    for (const DramCmd &c : read_q_) {
        if (c.bank == bank && b.open_row == c.row)
            ++b.open_matches;
    }
    for (const DramCmd &c : write_q_) {
        if (c.bank == bank && b.open_row == c.row)
            ++b.open_matches;
    }
}

int
DramChannel::pickCas(const std::deque<DramCmd> &q, Cycle now) const
{
    const int limit = static_cast<int>(q.size());
    for (int i = 0; i < limit; ++i) {
        const DramCmd &c = q[static_cast<std::size_t>(i)];
        const Bank &b = banks_[static_cast<std::size_t>(c.bank)];
        const Cycle turnaround = c.is_write ? 0 : b.wtr_ready;
        if (b.open_row == c.row && b.col_ready <= now &&
            b.act_done <= now && turnaround <= now) {
            return i;
        }
    }
    return -1;
}

int
DramChannel::pickAct(const std::deque<DramCmd> &q) const
{
    // Never close a row that still has queued hits: eager re-activation
    // would turn those hits into misses and thrash the row buffer.
    const int limit = static_cast<int>(q.size());
    for (int i = 0; i < limit; ++i) {
        const DramCmd &c = q[static_cast<std::size_t>(i)];
        const Bank &b = banks_[static_cast<std::size_t>(c.bank)];
        if (b.open_row != c.row && b.pending_row < 0 &&
            b.open_matches == 0) {
            return i;
        }
    }
    return -1;
}

std::deque<DramCmd> &
DramChannel::activeQueue()
{
    // Write-drain hysteresis (row-thrash control): writes batch in the
    // write buffer and drain together, instead of closing the rows the
    // read stream is hitting.
    if (draining_writes_) {
        if (static_cast<int>(write_q_.size()) <= cfg_.write_drain_low ||
            write_q_.empty()) {
            draining_writes_ = false;
        }
    } else {
        if (static_cast<int>(write_q_.size()) >= cfg_.write_drain_high ||
            read_q_.empty()) {
            draining_writes_ = true;
        }
    }
    if (draining_writes_ && !write_q_.empty())
        return write_q_;
    draining_writes_ = false;
    return read_q_;
}

void
DramChannel::issue(std::deque<DramCmd> &q, int idx, Cycle now)
{
    const int bank_idx = q[static_cast<std::size_t>(idx)].bank;
    Bank &bank = banks_[static_cast<std::size_t>(bank_idx)];
    const std::int64_t row = q[static_cast<std::size_t>(idx)].row;

    if (bank.open_row != row) {
        // Activation phase: precharge + activate bookkeeping only. The
        // command stays queued; its CAS issues once the row is open, so
        // the data bus is never reserved across the activation latency.
        const Cycle pre =
            std::max({now, bank.data_end, bank.write_recover});
        const Cycle act = std::max({pre + cfg_.tRP,
                                    bank.last_activate + cfg_.tRC,
                                    last_activate_any_ + cfg_.tRRD});
        bank.last_activate = act;
        last_activate_any_ = act;
        bank.open_row = row;
        bank.act_done = act + cfg_.tRCD;
        bank.col_ready = bank.act_done;
        bank.pending_row = row;
        q[idx].activated = true;
        ++row_misses_;
        recountOpenMatches(bank_idx);
        // Keep the claiming command inside the scheduler's search
        // window so its CAS always issues and releases the claim.
        if (idx > 0) {
            DramCmd moved = q[idx];
            q.erase(q.begin() + idx);
            q.push_front(moved);
        }
        return;
    }

    DramCmd cmd = q[idx];
    q.erase(q.begin() + idx);
    if (bank.open_matches > 0)
        --bank.open_matches;
    if (bank.pending_row == row)
        bank.pending_row = -1;
    if (!cmd.activated)
        ++row_hits_;

    // Column command: pipelines at tCCDL spacing; the CAS latency
    // overlaps with earlier transfers. tWTR gates only read-after-write.
    Cycle col = std::max({now, bank.col_ready, bank.act_done});
    if (!cmd.is_write)
        col = std::max(col, bank.wtr_ready);
    bank.col_ready = col + cfg_.tCCDL;
    const Cycle data_ready = col + cfg_.tCL;

    const int bursts = cmd.bursts + cmd.extra_bursts;
    const std::uint64_t start_q =
        std::max(bus_free_q_, static_cast<std::uint64_t>(data_ready) * 4);
    const std::uint64_t busy_q =
        static_cast<std::uint64_t>(bursts) * cfg_.burst_quarters;
    bus_free_q_ = start_q + busy_q;
    bus_busy_q_ += busy_q;

    const Cycle finish = (bus_free_q_ + 3) / 4;
    bank.data_end = finish;
    if (cmd.is_write) {
        bank.write_recover = finish + cfg_.tWR;
        bank.wtr_ready = finish + cfg_.tWTR;
    }

    (cmd.is_write ? writes_ : reads_) += 1;
    bursts_ += static_cast<std::uint64_t>(bursts);
    data_bursts_ += static_cast<std::uint64_t>(cmd.bursts);
    overhead_bursts_ += static_cast<std::uint64_t>(cmd.extra_bursts);
    queue_wait_cycles_ += now - cmd.enqueued;

    completed_.push_back({cmd.id, cmd.is_write, finish});
}

void
DramChannel::advanceBusWindows(Cycle now)
{
    // Closes every window that ended by `now`.
    while (bus_window_start_ + kBusWindowCycles <= now) {
        bus_window_busy_.record(bus_busy_q_ - bus_window_base_);
        bus_window_base_ = bus_busy_q_;
        bus_window_start_ += kBusWindowCycles;
    }
}

void
DramChannel::cycle(Cycle now)
{
    advanceBusWindows(now);
    if (read_q_.empty() && write_q_.empty())
        return;
    if (static_cast<int>(completed_.size()) >= cfg_.banks + 8) {
        ++sched_blocked_cap_;
        return;
    }
    std::deque<DramCmd> &q = activeQueue();

    // One activation and one CAS may issue per cycle (command/address
    // bandwidth is not the bottleneck this model studies).
    const int act_idx = pickAct(q);
    if (act_idx >= 0)
        issue(q, act_idx, now);

    const int cas_idx = pickCas(q, now);
    if (cas_idx >= 0) {
        issue(q, cas_idx, now);
        return;
    }
    // Opportunistic CAS from the inactive queue: open-row hits there
    // cost almost nothing, and claims/hits left stranded across
    // drain-mode switches would otherwise wedge their banks (row
    // re-activation is blocked while same-row work is queued).
    std::deque<DramCmd> &other = (&q == &read_q_) ? write_q_ : read_q_;
    const int other_idx = pickCas(other, now);
    if (other_idx >= 0) {
        issue(other, other_idx, now);
        return;
    }
    if (act_idx < 0)
        ++sched_no_eligible_;
}

void
DramChannel::drainCompleted(Cycle now, std::vector<DramCompletion> *out)
{
    for (std::size_t i = 0; i < completed_.size();) {
        if (completed_[i].finish <= now) {
            out->push_back(completed_[i]);
            completed_[i] = completed_.back();
            completed_.pop_back();
        } else {
            ++i;
        }
    }
}

StatSet
DramChannel::stats() const
{
    StatSet s;
    s.setCounter("row_hits", row_hits_);
    s.setCounter("row_misses", row_misses_);
    s.setCounter("activates", row_misses_);
    s.setCounter("reads", reads_);
    s.setCounter("writes", writes_);
    s.setCounter("bursts", bursts_);
    s.setCounter("data_bursts", data_bursts_);
    s.setCounter("overhead_bursts", overhead_bursts_);
    s.setCounter("queue_wait_cycles", queue_wait_cycles_);
    s.setCounter("reads_enqueued", reads_enqueued_);
    s.setCounter("writes_enqueued", writes_enqueued_);
    s.setCounter("sched_no_eligible", sched_no_eligible_);
    s.setCounter("sched_blocked_inflight_cap", sched_blocked_cap_);
    s.dist("read_queue_depth").merge(read_queue_depth_);
    s.dist("bus_window_busy_quarters").merge(bus_window_busy_);
    return s;
}

XbarDirection::XbarDirection(int inputs, int outputs, const XbarConfig &cfg)
    : cfg_(cfg), inputs_(inputs), outputs_(outputs),
      in_q_(inputs), port_busy_until_(outputs, 0), rr_(outputs, 0),
      out_q_(outputs), flying_per_out_(outputs, 0)
{
    CABA_CHECK(inputs > 0 && outputs > 0, "bad crossbar geometry");
}

bool
XbarDirection::canPush(int in) const
{
    return static_cast<int>(in_q_[in].size()) < cfg_.input_queue;
}

void
XbarDirection::push(int in, int out, const MemRequest &req)
{
    CABA_CHECK(canPush(in), "crossbar input overflow");
    CABA_CHECK(out >= 0 && out < outputs_, "bad crossbar output");
    in_q_[in].emplace_back(out, req);
    ++queued_packets_;
}

void
XbarDirection::cycle(Cycle now)
{
    if (flying_.empty() && queued_packets_ == 0)
        return;
    // Deliver in-flight packets whose latency elapsed.
    for (std::size_t i = 0; i < flying_.size();) {
        if (flying_[i].deliver_at <= now) {
            const int out = flying_[i].out;
            out_q_[out].push_back({flying_[i].req, flying_[i].deliver_at});
            --flying_per_out_[out];
            flying_[i] = flying_.back();
            flying_.pop_back();
        } else {
            ++i;
        }
    }

    // Per-output round-robin packet arbitration. The output port is
    // reserved for the packet's flit count; a fresh packet starts only
    // when the port is free and the destination queue has room.
    for (int out = 0; out < outputs_; ++out) {
        if (port_busy_until_[out] > now)
            continue;
        if (static_cast<int>(out_q_[out].size()) + flying_per_out_[out] >=
                cfg_.output_queue) {
            continue;
        }
        for (int k = 0; k < inputs_; ++k) {
            const int in = (rr_[out] + k) % inputs_;
            auto &q = in_q_[in];
            if (q.empty() || q.front().first != out)
                continue;
            const MemRequest req = q.front().second;
            q.pop_front();
            --queued_packets_;
            const int flits = req.flits();
            port_busy_until_[out] = now + flits;
            flying_.push_back({req, out, now + flits + cfg_.latency});
            ++flying_per_out_[out];
            stats_.add("packets");
            stats_.add("flits", static_cast<std::uint64_t>(flits));
            rr_[out] = (in + 1) % inputs_;
            break;
        }
    }
}

bool
XbarDirection::hasDelivery(int out, Cycle now) const
{
    return !out_q_[out].empty() && out_q_[out].front().at <= now;
}

MemRequest
XbarDirection::popDelivery(int out)
{
    CABA_CHECK(!out_q_[out].empty(), "no delivery to pop");
    MemRequest req = out_q_[out].front().req;
    out_q_[out].pop_front();
    return req;
}

bool
XbarDirection::busy() const
{
    if (!flying_.empty())
        return true;
    for (const auto &q : in_q_)
        if (!q.empty())
            return true;
    for (const auto &q : out_q_)
        if (!q.empty())
            return true;
    return false;
}

// ---------------------------------------------------- CompressionModel

CompressionModel::CompressionModel(const BackingStore &store, Algorithm algo,
                                   bool verify, std::size_t memo_cap)
    : store_(store), codec_(&getCodec(algo)), verify_(verify),
      memo_cap_(memo_cap)
{
    CABA_CHECK(memo_cap_ > 0, "memo capacity must be positive");
}

void
CompressionModel::evictLru()
{
    const Addr victim = lru_.back();
    auto it = memo_.find(victim);
    CABA_CHECK(it != memo_.end(), "memo LRU list out of sync");
    memo_bytes_ -= it->second.bytes;
    memo_.erase(it);
    lru_.pop_back();
    stats_.add("memo_evictions");
}

const CompressedLine &
CompressionModel::lookup(Addr line)
{
    auto it = memo_.find(line);
    if (it == memo_.end()) {
        if (memo_.size() >= memo_cap_)
            evictLru();
        lru_.push_front(line);
        it = memo_.emplace(line, Entry{}).first;
        it->second.lru_it = lru_.begin();
        peak_memo_entries_ = std::max(peak_memo_entries_, memo_.size());
        stats_.set("memo_peak_entries",
                   static_cast<std::uint64_t>(peak_memo_entries_));
    } else {
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    }
    Entry &e = it->second;
    const std::uint64_t v = store_.version(line);
    if (e.version != v) {
        std::uint8_t buf[kLineSize];
        store_.read(line, buf);
        e.cl = codec_->compress(buf);
        e.version = v;
        const std::size_t foot = sizeof(Entry) + e.cl.bytes.capacity();
        memo_bytes_ += foot - e.bytes;
        e.bytes = foot;
        if (memo_bytes_ > peak_memo_bytes_) {
            peak_memo_bytes_ = memo_bytes_;
            stats_.set("memo_peak_bytes",
                       static_cast<std::uint64_t>(peak_memo_bytes_));
        }
        stats_.add("lines_compressed");
        stats_.add("uncompressed_bytes", kLineSize);
        stats_.add("compressed_bytes",
                   static_cast<std::uint64_t>(e.cl.size()));
        stats_.add("uncompressed_bursts", kBurstsPerLine);
        stats_.add("compressed_bursts",
                   static_cast<std::uint64_t>(e.cl.bursts()));
        stats_.dist("compressed_line_bytes")
            .record(static_cast<std::uint64_t>(e.cl.size()));
        if (verify_) {
            std::uint8_t out[kLineSize];
            codec_->decompress(e.cl, out);
            CABA_CHECK(std::memcmp(buf, out, kLineSize) == 0,
                       "codec round-trip mismatch in memory image");
        }
    }
    return e.cl;
}

} // namespace ref
} // namespace caba

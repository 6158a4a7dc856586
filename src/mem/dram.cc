#include "mem/dram.h"

#include <algorithm>
#include <bit>

#include "common/audit.h"
#include "common/log.h"
#include "common/trace.h"

namespace caba {

namespace {

/** 256B chunks striped across channels; this is the chunk's index in
 *  the channel's local address space. */
constexpr Addr kChunkBytes = 256;

/** Bank @p b's bit in a bank mask. */
constexpr std::uint64_t
bankBit(int b)
{
    return std::uint64_t{1} << b;
}

/** Calls @p fn with every bank whose bit is set in @p mask, lowest
 *  first. */
template <typename Fn>
void
forEachBank(std::uint64_t mask, Fn fn)
{
    for (; mask != 0; mask &= mask - 1)
        fn(std::countr_zero(mask));
}

} // namespace

DramChannel::DramChannel(const DramConfig &cfg, int id)
    : cfg_(cfg), id_(id), banks_(cfg.banks)
{
    CABA_CHECK(cfg_.banks > 0, "channel needs banks");
    CABA_CHECK(cfg_.banks <= 64, "bank masks support at most 64 banks");
    CABA_CHECK(cfg_.burst_quarters > 0, "bad burst time");
    CABA_CHECK(cfg_.write_drain_low < cfg_.write_drain_high &&
               cfg_.write_drain_high <= cfg_.write_queue_capacity,
               "bad write-drain marks");
    write_q_.writes = true;
    // Every structure is sized by its bound up front (a queue's slots
    // and each bank list by the queue capacity, the completions by the
    // in-flight cap), so enqueue and issue never allocate.
    for (CmdQueue *q : {&read_q_, &write_q_}) {
        const auto cap = static_cast<std::size_t>(
            q->writes ? cfg_.write_queue_capacity : cfg_.queue_capacity);
        q->slots.reserve(cap);
        q->free_slots.reserve(cap);
        q->banks.resize(static_cast<std::size_t>(cfg_.banks));
        for (std::vector<int> &list : q->banks)
            list.reserve(cap);
        q->open_matches.assign(static_cast<std::size_t>(cfg_.banks), 0);
    }
    completed_.reserve(static_cast<std::size_t>(cfg_.banks + 8));
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
        return write_q_.size() < cfg_.write_queue_capacity;
    return read_q_.size() < cfg_.queue_capacity;
}

void
DramChannel::enqueue(DramCmd cmd)
{
    CABA_CHECK(canAccept(cmd.is_write), "DRAM queue overflow");
    cmd.bank = bankOf(cmd.line);
    cmd.row = rowOf(cmd.line);
    const std::size_t b = static_cast<std::size_t>(cmd.bank);
    CmdQueue &q = cmd.is_write ? write_q_ : read_q_;
    if (banks_[b].open_row == cmd.row) {
        ++q.open_matches[b];
        q.open |= bankBit(cmd.bank);
    }
    int slot = static_cast<int>(q.slots.size());
    if (q.free_slots.empty()) {
        q.slots.push_back({q.back_key++, cmd});
    } else {
        slot = q.free_slots.back();
        q.free_slots.pop_back();
        q.slots[static_cast<std::size_t>(slot)] = {q.back_key++, cmd};
    }
    q.banks[b].push_back(slot);
    q.nonempty |= bankBit(cmd.bank);
    if (cmd.is_write) {
        ++writes_enqueued_;
    } else {
        ++reads_enqueued_;
        read_queue_depth_.record(
            static_cast<std::uint64_t>(read_q_.size()));
    }
}

void
DramChannel::recountOpenMatches(int b)
{
    const std::size_t bi = static_cast<std::size_t>(b);
    const std::int64_t row = banks_[bi].open_row;
    for (CmdQueue *q : {&read_q_, &write_q_}) {
        int n = 0;
        for (const int slot : q->banks[bi])
            n += q->slots[static_cast<std::size_t>(slot)].cmd.row == row
                ? 1 : 0;
        q->open_matches[bi] = n;
        if (n != 0)
            q->open |= bankBit(b);
        else
            q->open &= ~bankBit(b);
    }
}

Cycle
DramChannel::casReadyAt(int b, bool is_write) const
{
    const Bank &bank = banks_[static_cast<std::size_t>(b)];
    const Cycle t = std::max(bank.col_ready, bank.act_done);
    return is_write ? t : std::max(t, bank.wtr_ready);
}

DramChannel::Pick
DramChannel::pickCas(const CmdQueue &q, Cycle now) const
{
    Pick best;
    std::int64_t best_key = 0;
    forEachBank(q.open, [&](int b) {
        if (casReadyAt(b, q.writes) > now)
            return;
        // The bank's first open-row command; one exists (the mask).
        const std::int64_t row = banks_[static_cast<std::size_t>(b)].open_row;
        int pos = 0;
        while (q.at(b, pos).cmd.row != row)
            ++pos;
        const std::int64_t key = q.at(b, pos).key;
        if (best.bank < 0 || key < best_key) {
            best = {b, pos};
            best_key = key;
        }
    });
    return best;
}

int
DramChannel::pickAct(const CmdQueue &q) const
{
    // Never close a row that still has queued hits: eager re-activation
    // would turn those hits into misses and thrash the row buffer. This
    // also holds a bank for the command that activated it, which matches
    // the open row until its own CAS. With no open-row work in either
    // queue, every command of the bank needs an activation, so its first
    // one is its candidate.
    int best = -1;
    std::int64_t best_key = 0;
    forEachBank(q.nonempty & ~(read_q_.open | write_q_.open), [&](int b) {
        const std::int64_t key = q.at(b, 0).key;
        if (best < 0 || key < best_key) {
            best = b;
            best_key = key;
        }
    });
    return best;
}

DramChannel::CmdQueue &
DramChannel::activeQueue()
{
    // Write-drain hysteresis (row-thrash control): writes batch in the
    // write buffer and drain together, instead of closing the rows the
    // read stream is hitting.
    const int writes = write_q_.size();
    if (draining_writes_)
        draining_writes_ = !(writes <= cfg_.write_drain_low || writes == 0);
    else
        draining_writes_ =
            writes >= cfg_.write_drain_high || read_q_.size() == 0;
    if (draining_writes_ && writes != 0)
        return write_q_;
    draining_writes_ = false;
    return read_q_;
}

void
DramChannel::activate(CmdQueue &q, int b, Cycle now)
{
    // Precharge + activate bookkeeping only. The command stays queued;
    // its CAS issues once the row is open, so the data bus is never
    // reserved across the activation latency.
    Bank &bank = banks_[static_cast<std::size_t>(b)];
    Queued &head = q.at(b, 0);
    const Cycle pre = std::max({now, bank.data_end, bank.write_recover});
    const Cycle act = std::max({pre + cfg_.tRP,
                                bank.last_activate + cfg_.tRC,
                                last_activate_any_ + cfg_.tRRD});
    bank.last_activate = act;
    last_activate_any_ = act;
    bank.open_row = head.cmd.row;
    bank.act_done = act + cfg_.tRCD;
    bank.col_ready = bank.act_done;
    head.cmd.activated = true;
    ++row_misses_;
    recountOpenMatches(b);
    // Move the activating command to the head of its queue so it stays
    // first in line. It already heads its bank list (pickAct only
    // activates a bank's first command).
    head.key = --q.front_key;
}

void
DramChannel::issueCas(CmdQueue &q, Pick at, Cycle now)
{
    const std::size_t bi = static_cast<std::size_t>(at.bank);
    Bank &bank = banks_[bi];
    std::vector<int> &list = q.banks[bi];
    const int slot = list[static_cast<std::size_t>(at.pos)];
    const DramCmd cmd = q.slots[static_cast<std::size_t>(slot)].cmd;
    list.erase(list.begin() + at.pos);
    q.free_slots.push_back(slot);
    if (list.empty())
        q.nonempty &= ~bankBit(at.bank);
    if (--q.open_matches[bi] == 0)
        q.open &= ~bankBit(at.bank);
    if (!cmd.activated)
        ++row_hits_;

    // Column command: pipelines at tCCDL spacing; the CAS latency
    // overlaps with earlier transfers. tWTR gates only read-after-write.
    const Cycle col = std::max(now, casReadyAt(at.bank, cmd.is_write));
    bank.col_ready = col + cfg_.tCCDL;
    Cycle data_ready = col + cfg_.tCL;

    data_ready += cmd.extra_latency;

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

    if (trace::on(trace::kDram)) {
        // One span per access covering its data-bus occupancy, on the
        // bank's own timeline row (quarter-cycles rounded to cycles).
        const Cycle bus_start = start_q / 4;
        const Cycle bus_dur = std::max<std::uint64_t>(1, busy_q / 4);
        trace::complete(trace::kDram, trace::kPidDram,
                        id_ * 100 + at.bank,
                        cmd.is_write ? "write" : "read", bus_start, bus_dur,
                        "line", cmd.line);
    }

    completed_.push_back({cmd.id, cmd.is_write, finish});
}

void
DramChannel::advanceBusWindows(Cycle now)
{
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
    if (read_q_.size() == 0 && write_q_.size() == 0)
        return;
    if (static_cast<int>(completed_.size()) >= cfg_.banks + 8) {
        ++sched_blocked_cap_;
        return;
    }
    CmdQueue &q = activeQueue();

    // One activation and one CAS may issue per cycle (command/address
    // bandwidth is not the bottleneck this model studies).
    const int act_bank = pickAct(q);
    if (act_bank >= 0)
        activate(q, act_bank, now);

    const Pick cas = pickCas(q, now);
    if (cas.bank >= 0) {
        issueCas(q, cas, now);
        return;
    }
    // Opportunistic CAS from the inactive queue: open-row hits there
    // cost almost nothing, and activated commands and hits left
    // stranded across drain-mode switches would otherwise wedge their
    // banks (row re-activation is blocked while same-row work is
    // queued).
    CmdQueue &other = q.writes ? read_q_ : write_q_;
    const Pick other_cas = pickCas(other, now);
    if (other_cas.bank >= 0) {
        issueCas(other, other_cas, now);
        return;
    }
    if (act_bank < 0)
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

double
DramChannel::busUtilization(Cycle elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(bus_busy_q_) /
           (static_cast<double>(elapsed) * 4.0);
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

void
DramChannel::audit(Audit &a, bool at_drain) const
{
    a.checkEq("dram", "bursts == data_bursts + overhead_bursts", bursts_,
              data_bursts_ + overhead_bursts_);
    a.checkLe("dram", "reads issued <= reads enqueued", reads_,
              reads_enqueued_);
    a.checkLe("dram", "writes issued <= writes enqueued", writes_,
              writes_enqueued_);
    // The bank masks mirror the lists and the open-row counts.
    bool masks_exact = true;
    for (int b = 0; b < cfg_.banks; ++b) {
        const std::size_t bi = static_cast<std::size_t>(b);
        for (const CmdQueue *q : {&read_q_, &write_q_}) {
            masks_exact = masks_exact &&
                          ((q->nonempty & bankBit(b)) != 0) ==
                              !q->banks[bi].empty() &&
                          ((q->open & bankBit(b)) != 0) ==
                              (q->open_matches[bi] != 0);
        }
    }
    a.checkTrue("dram", "bank masks match the queues", masks_exact);
    if (at_drain) {
        a.checkEq("dram", "every enqueued read issued at drain",
                  reads_enqueued_, reads_);
        a.checkEq("dram", "every enqueued write issued at drain",
                  writes_enqueued_, writes_);
        a.checkTrue("dram", "queues empty at drain", !busy());
    }
}

} // namespace caba

/**
 * @file
 * GDDR5 channel model: 16 banks with row-buffer state, FR-FCFS
 * scheduling with read priority, and a data bus whose occupancy is
 * counted in 32-byte bursts — the unit in which compression saves
 * bandwidth (Table 1 and Section 4.3.2).
 *
 * Timing abstraction: tCL/tRP/tRCD/tRC/tRRD/tWR from Table 1 gate when a
 * bank can deliver; the data bus is tracked in quarter-core-cycles so the
 * 1x-bandwidth burst time of 1.5 core cycles (177.4 GB/s over 6 channels
 * at a 1.4 GHz core) is exact. Refresh and bank-group tCCDL are folded
 * into the burst gap.
 *
 * Both queues are indexed by bank (see CmdQueue), so every FR-FCFS pick
 * is an argmin over the candidate banks of a bitmask rather than a scan
 * over the commands. The channel's MemoryPartition cycles it on every
 * partition cycle, which is every clock.
 */
#ifndef CABA_MEM_DRAM_H
#define CABA_MEM_DRAM_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace caba {

class Audit;

/** Channel geometry and timing (core-clock cycles). */
struct DramConfig
{
    int banks = 16;
    int row_bytes = 2048;

    /**
     * Number of channels in the system, used only for address
     * decomposition: channel bits sit at 256B granularity, bank bits
     * directly above them, so consecutive chunks on one channel stripe
     * across banks (avoiding bank camping by lock-step streams).
     */
    int channels = 6;
    int tCL = 12;
    int tRP = 12;
    int tRCD = 12;
    int tRC = 40;
    int tRRD = 6;
    int tWR = 12;
    int tCCDL = 5;  ///< Column-to-column spacing (Table 1 "tCLDR").
    int tWTR = 5;   ///< Write-to-read turnaround within a bank.

    /**
     * Quarter-core-cycles of data-bus time per 32B burst. 6 (=1.5
     * cycles) reproduces the paper's 177.4 GB/s baseline; 12 and 3 give
     * the 1/2x and 2x bandwidth points of Figures 1 and 12.
     */
    int burst_quarters = 6;

    int queue_capacity = 64;        ///< Read queue entries.
    int write_queue_capacity = 64;  ///< Write buffer entries.

    /** Write-drain hysteresis: start draining when the write buffer
     *  reaches the high mark, stop at the low mark (row-thrash control:
     *  writes batch instead of interleaving with the read stream). */
    int write_drain_high = 48;
    int write_drain_low = 8;
};

/** One scheduled DRAM access. */
struct DramCmd
{
    std::uint64_t id = 0;
    Addr line = 0;
    bool is_write = false;
    int bursts = kBurstsPerLine;

    /** Extra bus bursts charged (page walk and/or metadata fetch). */
    int extra_bursts = 0;

    Cycle enqueued = 0;

    /** Set when this command triggered the bank's activation. */
    bool activated = false;

    /** Channel-local bank/row, memoized by enqueue() — pure functions
     *  of @c line, but the FR-FCFS scans read them per queue entry per
     *  cycle and the div/mod chain dominates otherwise. */
    int bank = 0;
    std::int64_t row = 0;
};

/** A finished access, reported back to the memory partition. */
struct DramCompletion
{
    std::uint64_t id = 0;
    bool is_write = false;
    Cycle finish = 0;
};

/** One GDDR5 channel. */
class DramChannel
{
  public:
    /** @p id names the channel in trace output (partition index).
     *  At most 64 banks: the bank masks are one word. */
    explicit DramChannel(const DramConfig &cfg, int id = 0);

    /** True when the relevant queue (read or write) has room. */
    bool canAccept(bool is_write) const;

    /** Queues a command; canAccept() must be true. */
    void enqueue(DramCmd cmd);

    /** Advances one core cycle; issues at most one command. */
    void cycle(Cycle now);

    /** Moves completions whose finish time has passed into @p out. */
    void drainCompleted(Cycle now, std::vector<DramCompletion> *out);

    bool
    busy() const
    {
        return read_q_.size() != 0 || write_q_.size() != 0 ||
               !completed_.empty();
    }

    /** Fraction of elapsed time the data bus moved data. */
    double busUtilization(Cycle elapsed) const;

    /** Current read-queue occupancy (counter trace track). */
    int readQueueDepth() const { return read_q_.size(); }

    /** Assembles the counter snapshot (reads, writes, bursts, rows...). */
    StatSet stats() const;

    std::uint64_t totalBursts() const { return bursts_; }

    /** Data-payload bursts only (the partition's transfer ledger must
     *  equal this at drain). */
    std::uint64_t dataBursts() const { return data_bursts_; }

    /** Burst-ledger and enqueue/completion conservation checks. */
    void audit(Audit &a, bool at_drain) const;

  private:
    struct Bank
    {
        std::int64_t open_row = -1;
        Cycle col_ready = 0;     ///< Earliest next column command (tCCDL).
        Cycle act_done = 0;      ///< Activation complete (tRCD elapsed).
        Cycle last_activate = 0; ///< For tRC spacing.
        Cycle data_end = 0;      ///< Last data beat out of this bank.
        Cycle write_recover = 0; ///< tWR: gates precharge after a write.
        Cycle wtr_ready = 0;     ///< tWTR: gates reads after a write.
    };

    /** A queued command and its place in its queue's FR-FCFS order. */
    struct Queued
    {
        std::int64_t key = 0;   ///< Queue order: ascending key.
        DramCmd cmd;
    };

    /**
     * One command queue (reads or writes), indexed by bank. Queue order
     * is ascending key: enqueue() appends with a rising key and an
     * activation moves its command to the head of the queue with a
     * falling key, which is exactly the order of a FIFO whose
     * activating commands move to the front. Each bank's list holds the
     * slots of that bank's commands in queue order, so "the first
     * command in the queue with property P" is the smallest key over
     * the banks' first P-commands. Commands live in a slot array that
     * grows to the queue's peak occupancy and reuses freed slots; the
     * bank lists move only slot numbers. Two bank masks name the
     * candidates of each pick, so a pick visits only them.
     */
    struct CmdQueue
    {
        bool writes = false;    ///< The write queue (tWTR does not gate).
        std::vector<Queued> slots;
        std::vector<int> free_slots;
        std::vector<std::vector<int>> banks;

        /** Per bank: queued commands matching the bank's open row (a
         *  bank with open-row work in either queue is never
         *  re-activated). Exact at all times. */
        std::vector<int> open_matches;

        /** Bit b set iff bank b's list is not empty. */
        std::uint64_t nonempty = 0;

        /** Bit b set iff open_matches[b] != 0. */
        std::uint64_t open = 0;

        std::int64_t back_key = 0;  ///< Next enqueue key.
        std::int64_t front_key = 0; ///< Last head key handed out.

        /** Queued commands. */
        int
        size() const
        {
            return static_cast<int>(slots.size() - free_slots.size());
        }

        /** The command at position @p pos of bank @p b's list. */
        Queued &
        at(int b, int pos)
        {
            return slots[static_cast<std::size_t>(
                banks[static_cast<std::size_t>(b)]
                     [static_cast<std::size_t>(pos)])];
        }

        const Queued &
        at(int b, int pos) const
        {
            return slots[static_cast<std::size_t>(
                banks[static_cast<std::size_t>(b)]
                     [static_cast<std::size_t>(pos)])];
        }
    };

    /** A pick in a CmdQueue: bank list and position within it. */
    struct Pick
    {
        int bank = -1;
        int pos = 0;
    };

    int bankOf(Addr line) const;
    std::int64_t rowOf(Addr line) const;

    /** Bank-timing gate for a CAS to bank @p b from the read or write
     *  queue: the earliest cycle its column command may issue. */
    Cycle casReadyAt(int b, bool is_write) const;

    /** FR-FCFS pick within @p q: the first delivery-ready open-row
     *  command in queue order (bank -1 when none). */
    Pick pickCas(const CmdQueue &q, Cycle now) const;

    /** Bank whose first command in @p q is the oldest one needing an
     *  activation of a bank with no open-row work, or -1. */
    int pickAct(const CmdQueue &q) const;

    /** Precharge + activate for the first command of bank @p b in @p q;
     *  the command stays queued, moved to the head of @p q. */
    void activate(CmdQueue &q, int b, Cycle now);

    /** Issues the column command at @p at and dequeues it. */
    void issueCas(CmdQueue &q, Pick at, Cycle now);

    /** Updates the write-drain flag and returns the queue the scheduler
     *  serves this cycle. */
    CmdQueue &activeQueue();

    /** Recounts both queues' open-row matches for bank @p b after its
     *  row changed. */
    void recountOpenMatches(int b);

    DramConfig cfg_;
    int id_;
    std::vector<Bank> banks_;
    CmdQueue read_q_;
    CmdQueue write_q_;
    bool draining_writes_ = false;
    std::vector<DramCompletion> completed_;

    /** Data-bus reservation head, in quarter-cycles. */
    std::uint64_t bus_free_q_ = 0;

    /** Total quarter-cycles of bus occupancy (utilization numerator). */
    std::uint64_t bus_busy_q_ = 0;

    Cycle last_activate_any_ = 0;   ///< For tRRD spacing.

    // counters (hot path: plain members, assembled by stats())
    std::uint64_t row_hits_ = 0;
    std::uint64_t row_misses_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t bursts_ = 0;
    std::uint64_t data_bursts_ = 0;
    std::uint64_t overhead_bursts_ = 0;
    std::uint64_t queue_wait_cycles_ = 0;
    std::uint64_t reads_enqueued_ = 0;
    std::uint64_t writes_enqueued_ = 0;
    std::uint64_t sched_no_eligible_ = 0;
    std::uint64_t sched_blocked_cap_ = 0;

    /** Read-queue depth sampled at every enqueue. */
    Distribution read_queue_depth_;

    /** Bus-utilization windows: busy quarter-cycles are attributed to
     *  the fixed window in which their CAS issued, giving a burstiness
     *  histogram on top of the scalar utilization. A window can exceed
     *  its 4 * kBusWindowCycles quarter capacity when reservations
     *  stack into later windows — this is attribution, not occupancy. */
    static constexpr Cycle kBusWindowCycles = 1024;

    /** Records every window ending at or before @p now. Runs before
     *  cycle()'s queue-empty early return, so a window closes on time
     *  whatever the queues hold. */
    void advanceBusWindows(Cycle now);

    Cycle bus_window_start_ = 0;
    std::uint64_t bus_window_base_ = 0;
    Distribution bus_window_busy_;
};

} // namespace caba

#endif // CABA_MEM_DRAM_H

/**
 * @file
 * Test-only reference copies of three memory-side components as they
 * were before their schedulers or tables were flattened: the DRAM
 * channel whose FR-FCFS picks scan two std::deque command queues, the
 * crossbar whose round-robin arbitration walks every input per output,
 * and the compression model whose memo is a std::unordered_map plus a
 * std::list LRU with string-keyed stats. Nothing in the simulator links
 * them; the differential tests hold the shipped DramChannel,
 * XbarDirection and CompressionModel to these. Tracing, the audit hooks
 * and the crossbar's port views are left out: they do not take part in
 * scheduling or results.
 */
#ifndef CABA_TESTS_REFERENCE_MEM_H
#define CABA_TESTS_REFERENCE_MEM_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "compress/codec.h"
#include "compress/registry.h"
#include "mem/backing_store.h"
#include "mem/dram.h"
#include "mem/request.h"
#include "mem/xbar.h"

namespace caba {
namespace ref {

/** GDDR5 channel with deque queues scanned front to back. */
class DramChannel
{
  public:
    explicit DramChannel(const DramConfig &cfg);

    bool canAccept(bool is_write) const;
    void enqueue(DramCmd cmd);
    void cycle(Cycle now);
    void drainCompleted(Cycle now, std::vector<DramCompletion> *out);

    bool
    busy() const
    {
        return !read_q_.empty() || !write_q_.empty() || !completed_.empty();
    }

    int readQueueDepth() const { return static_cast<int>(read_q_.size()); }
    StatSet stats() const;

  private:
    struct Bank
    {
        std::int64_t open_row = -1;
        Cycle col_ready = 0;
        Cycle act_done = 0;
        Cycle last_activate = 0;
        Cycle data_end = 0;
        Cycle write_recover = 0;
        Cycle wtr_ready = 0;
        std::int64_t pending_row = -1;
        int open_matches = 0;   ///< Both queues, maintained incrementally.
    };

    int bankOf(Addr line) const;
    std::int64_t rowOf(Addr line) const;
    int pickCas(const std::deque<DramCmd> &q, Cycle now) const;
    int pickAct(const std::deque<DramCmd> &q) const;
    void issue(std::deque<DramCmd> &q, int idx, Cycle now);
    std::deque<DramCmd> &activeQueue();
    void recountOpenMatches(int bank);
    void advanceBusWindows(Cycle now);

    DramConfig cfg_;
    std::vector<Bank> banks_;
    std::deque<DramCmd> read_q_;
    std::deque<DramCmd> write_q_;
    bool draining_writes_ = false;
    std::vector<DramCompletion> completed_;
    std::uint64_t bus_free_q_ = 0;
    std::uint64_t bus_busy_q_ = 0;
    Cycle last_activate_any_ = 0;

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
    Distribution read_queue_depth_;

    static constexpr Cycle kBusWindowCycles = 1024;
    Cycle bus_window_start_ = 0;
    std::uint64_t bus_window_base_ = 0;
    Distribution bus_window_busy_;
};

/** One crossbar direction whose arbiter polls every input per output. */
class XbarDirection
{
  public:
    XbarDirection(int inputs, int outputs, const XbarConfig &cfg);

    bool canPush(int in) const;
    void push(int in, int out, const MemRequest &req);
    void cycle(Cycle now);
    bool hasDelivery(int out, Cycle now) const;
    MemRequest popDelivery(int out);
    bool busy() const;
    const StatSet &stats() const { return stats_; }

  private:
    struct InFlight
    {
        MemRequest req;
        int out = 0;
        Cycle deliver_at = 0;
    };

    struct Delivered
    {
        MemRequest req;
        Cycle at = 0;
    };

    XbarConfig cfg_;
    int inputs_;
    int outputs_;
    std::vector<std::deque<std::pair<int, MemRequest>>> in_q_;
    std::vector<Cycle> port_busy_until_;
    std::vector<int> rr_;
    std::vector<std::deque<Delivered>> out_q_;
    std::vector<InFlight> flying_;
    std::vector<int> flying_per_out_;
    int queued_packets_ = 0;
    StatSet stats_;
};

/** Compression memo over an unordered_map with a std::list LRU. */
class CompressionModel
{
  public:
    CompressionModel(const BackingStore &store, Algorithm algo,
                     bool verify, std::size_t memo_cap);

    const CompressedLine &lookup(Addr line);
    const StatSet &stats() const { return stats_; }
    std::size_t memoEntries() const { return memo_.size(); }

  private:
    struct Entry
    {
        std::uint64_t version = ~std::uint64_t{0};
        CompressedLine cl;
        std::list<Addr>::iterator lru_it;
        std::size_t bytes = 0;
    };

    void evictLru();

    const BackingStore &store_;
    const Codec *codec_ = nullptr;
    bool verify_;
    std::size_t memo_cap_;
    std::unordered_map<Addr, Entry> memo_;
    std::list<Addr> lru_;
    std::size_t memo_bytes_ = 0;
    std::size_t peak_memo_bytes_ = 0;
    std::size_t peak_memo_entries_ = 0;
    StatSet stats_;
};

} // namespace ref
} // namespace caba

#endif // CABA_TESTS_REFERENCE_MEM_H

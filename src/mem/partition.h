/**
 * @file
 * One memory partition: an L2 slice plus its GDDR5 channel plus the
 * compression machinery that lives at the memory controller (burst-count
 * metadata + MD cache, Section 4.3.2; dedicated codec latency for the
 * HW-<algo>-Mem design). Requests arrive from the request crossbar
 * through accept(); read replies wait in replies() until GpuSystem moves
 * them into the reply crossbar. GpuSystem cycles every partition on
 * every clock, and each partition cycle cycles its DRAM channel.
 */
#ifndef CABA_MEM_PARTITION_H
#define CABA_MEM_PARTITION_H

#include <vector>

#include "common/audit.h"
#include "common/component.h"
#include "common/flat_map.h"
#include "common/ring.h"
#include "common/stats.h"
#include "compress/design.h"
#include "mem/cache.h"
#include "mem/compression_model.h"
#include "mem/dram.h"
#include "mem/md_cache.h"
#include "mem/request.h"

namespace caba {

/** Partition-level knobs. */
struct PartitionConfig
{
    CacheConfig l2{128 * 1024, 16, 1};  ///< Per-partition slice (768KB/6).
    int l2_latency = 20;
    DramConfig dram{};
    int md_size_bytes = 8 * 1024;
    int md_assoc = 4;

    /**
     * Cost of an MD-cache miss. The metadata fetch is a real DRAM
     * access (one burst of bandwidth), but its latency overlaps with
     * the data access's row activation and the TLB walk (paper
     * Section 4.3.2, footnote 4), so the default adds no serial latency.
     */
    int md_miss_latency = 0;
    int md_miss_bursts = 1;

    /**
     * Address-translation model (paper footnote 4): accesses that miss
     * the TLB pay a page-table access in EVERY design, and a
     * same-access MD-cache miss piggybacks on that walk instead of
     * costing its own burst. TLB reach = entries x 4KB pages.
     */
    bool model_tlb = true;
    int tlb_size_bytes = 16 * 1024;
    int tlb_page_lines = 4096 / kLineSize;
};

/** L2 slice + memory controller + DRAM channel. GpuSystem's wire phase
 *  moves the request crossbar's deliveries in through accept() and its
 *  replies() out to the reply crossbar. */
class MemoryPartition
{
  public:
    MemoryPartition(int id, const PartitionConfig &cfg,
                    const DesignConfig &design, CompressionModel *model);

    /** True when a request delivered by the crossbar can be taken. */
    bool canAccept() const;

    /** Hands over one request (read or store); canAccept() must hold. */
    void accept(const MemRequest &req, Cycle now);

    /** Advances one core cycle. */
    void cycle(Cycle now);

    /** Read replies ready for the reply crossbar (drained by GpuSystem). */
    Channel<MemRequest> &replies() { return replies_; }

    /** True while any request, DRAM command or reply is in flight. */
    bool busy() const;

    double dramBusUtilization(Cycle elapsed) const;

    const Cache &l2() const { return l2_; }
    const DramChannel &dram() const { return dram_; }
    const MdCache &mdCache() const { return md_; }

    /** Snapshot of every partition counter. */
    StatSet stats() const;

    /** Registers the request-lifecycle / invariant audit. */
    void attachAudit(Audit *audit) { audit_ = audit; }

    /** Mutation self-test hook: count the next DRAM read's data bursts
     *  twice in the transfer ledger (simulates a double-count bug). */
    void faultDoubleCountNextBurst() { fault_double_count_burst_ = true; }

    /** Stat identities and queue-drain checks for the whole partition
     *  (L2, MD cache, TLB, DRAM channel, transfer-burst ledger). */
    void audit(Audit &a, bool at_drain) const;

  private:
    /** Payload size of line data at this level for the current design. */
    int payloadBytes(Addr line);

    /** Issues a DRAM read for @p req (metadata overhead applied). */
    void issueDramRead(const MemRequest &req, Cycle now);

    /** Issues a DRAM write for @p line (eviction or write-through). */
    void issueDramWrite(Addr line, Cycle now, bool partial_uncached);

    /** Queues the reply for @p req (L2 data now present). */
    void makeReply(const MemRequest &req, Cycle now, bool from_dram);

    void handleL2Ready(const MemRequest &req, Cycle now);
    void handleDramCompletion(const DramCompletion &done, Cycle now);

    /**
     * Applies TLB + MD-cache costs for one DRAM access; returns
     * {extra_lat, extra_bursts} covering the page walk (all designs)
     * and the metadata fetch (compressed designs, unless it piggybacks
     * on a concurrent page walk).
     */
    std::pair<int, int> metadataCost(Addr line, Cycle now, bool is_write);

    int id_;
    PartitionConfig cfg_;
    DesignConfig design_;
    CompressionModel *model_;

    Cache l2_;
    DramChannel dram_;
    MdCache md_;
    MdCache tlb_;   ///< Page-translation reach, modeled like the MD cache.

    // Every queue and table below keeps its storage once grown, so the
    // per-request path allocates nothing in steady state.

    /** Requests inside the L2 lookup pipeline: (ready_at, request). */
    Ring<std::pair<Cycle, MemRequest>> l2_pipe_;

    /** Requests that missed L2 but could not enter DRAM yet. */
    Ring<MemRequest> dram_stalled_;

    /** Dirty evictions waiting for DRAM queue space. */
    Ring<Addr> writeback_stalled_;

    /** Outstanding DRAM reads: id -> requests merged onto that read. */
    FlatMap<ListPool<MemRequest>::List> dram_reads_;
    ListPool<MemRequest> waiters_;

    /** Line-level merge of concurrent misses: line -> DRAM read id. */
    FlatMap<std::uint64_t> line_read_;

    /** Replies delayed by MC-side codec latency: (ready_at, reply). */
    Ring<std::pair<Cycle, MemRequest>> reply_wait_;

    /** Per-cycle scratch: finished DRAM commands, L2 victims. */
    std::vector<DramCompletion> done_;
    std::vector<Eviction> evicted_;

    Channel<MemRequest> replies_;
    std::uint64_t next_dram_id_ = 1;

    /** Hot-path counters (assembled into a StatSet by stats()). */
    struct Counters
    {
        std::uint64_t loads_in = 0;
        std::uint64_t stores_in = 0;
        std::uint64_t ingress_latency_total = 0;
        std::uint64_t service_latency_total = 0;
        std::uint64_t replies = 0;
        std::uint64_t transfer_bursts = 0;
        std::uint64_t transfer_bursts_uncompressed = 0;
        std::uint64_t md_lookups = 0;
        std::uint64_t md_misses = 0;
        std::uint64_t md_piggybacked = 0;
        std::uint64_t md_writebacks = 0;
        std::uint64_t tlb_misses = 0;
        std::uint64_t dram_read_merges = 0;
        std::uint64_t dram_stall_events = 0;
        std::uint64_t dram_writes_issued = 0;
        std::uint64_t dram_writes_done = 0;
        std::uint64_t mc_compressions = 0;
        std::uint64_t mc_decompressions = 0;
        std::uint64_t l2_store_accesses = 0;
        std::uint64_t partial_store_fills = 0;
        std::uint64_t partial_store_writethrough = 0;
    };
    Counters n_;
    Audit *audit_ = nullptr;
    bool fault_double_count_burst_ = false;
};

} // namespace caba

#endif // CABA_MEM_PARTITION_H

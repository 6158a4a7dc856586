/**
 * @file
 * Memory-partition tests: L2 hit/miss service, miss merging, the
 * unbounded reply ring, write-back behaviour, the partial-store worst
 * case of Section 4.2.2, MD-cache integration, and MC-side
 * decompression latency for HW-<algo>-Mem.
 */
#include <gtest/gtest.h>

#include <vector>

#include "mem/partition.h"
#include "workloads/data_profile.h"

namespace caba {
namespace {

struct PartitionHarness
{
    BackingStore store;
    CompressionModel model;
    MemoryPartition part;
    Cycle now = 0;
    std::uint64_t next_id = 1;

    explicit PartitionHarness(const DesignConfig &design,
                              PartitionConfig cfg = {})
        : store([](Addr line, std::uint8_t *out) {
              generateProfileLine(DataProfile::Pointer, 5, line, out);
          }),
          model(store, design.usesCompression() ? design.algo
                                                : Algorithm::Bdi,
                true),
          part(0, cfg, design,
               design.usesCompression() ? &model : nullptr)
    {}

    MemRequest
    makeLoad(Addr line)
    {
        MemRequest r;
        r.id = next_id++;
        r.line = line;
        r.payload_bytes = 8;
        r.created = now;
        return r;
    }

    MemRequest
    makeStore(Addr line, bool full)
    {
        MemRequest r = makeLoad(line);
        r.is_write = true;
        r.full_line = full;
        r.payload_bytes = kLineSize;
        return r;
    }

    /** Runs until a reply shows up or the cycle budget runs out. */
    bool
    runUntilReply(Cycle budget = 5000)
    {
        for (Cycle end = now + budget; now < end; ++now) {
            part.cycle(now);
            if (!part.replies().empty())
                return true;
        }
        return false;
    }

    void
    drain(Cycle budget = 20000)
    {
        for (Cycle end = now + budget; now < end && part.busy(); ++now)
            part.cycle(now);
    }
};

TEST(Partition, LoadMissGoesToDramAndReplies)
{
    PartitionHarness h(DesignConfig::base());
    h.part.accept(h.makeLoad(0), h.now);
    ASSERT_TRUE(h.runUntilReply());
    const MemRequest reply = h.part.replies().front();
    EXPECT_EQ(reply.line, 0u);
    EXPECT_EQ(reply.payload_bytes, kLineSize);
    EXPECT_FALSE(reply.compressed);
    EXPECT_EQ(h.part.dram().stats().get("reads"), 1u);
}

TEST(Partition, SecondLoadHitsL2)
{
    PartitionHarness h(DesignConfig::base());
    h.part.accept(h.makeLoad(0), h.now);
    ASSERT_TRUE(h.runUntilReply());
    h.part.replies().clear();
    h.part.accept(h.makeLoad(0), h.now);
    ASSERT_TRUE(h.runUntilReply());
    EXPECT_EQ(h.part.dram().stats().get("reads"), 1u);  // no second read
    EXPECT_EQ(h.part.l2().hits(), 1u);
}

TEST(Partition, ConcurrentMissesMergeOnOneDramRead)
{
    PartitionHarness h(DesignConfig::base());
    h.part.accept(h.makeLoad(0), h.now);
    h.part.accept(h.makeLoad(0), h.now);
    h.drain();
    EXPECT_EQ(h.part.dram().stats().get("reads"), 1u);
    EXPECT_EQ(h.part.stats().get("dram_read_merges"), 1u);
    EXPECT_EQ(h.part.stats().get("replies"), 2u);
}

TEST(Partition, RepliesQueueWithoutBoundUntilTaken)
{
    // The reply ring has no cap: with nobody moving replies into the
    // reply crossbar, every read's reply waits in it, once each.
    PartitionHarness h(DesignConfig::base());
    constexpr int kLoads = 100;
    for (int sent = 0; sent < kLoads; ++h.now) {
        if (h.part.canAccept()) {
            h.part.accept(
                h.makeLoad(static_cast<Addr>(sent) * kLineSize), h.now);
            ++sent;
        }
        h.part.cycle(h.now);
    }
    for (const Cycle end = h.now + 50000;
         h.part.replies().size() < kLoads && h.now < end; ++h.now)
        h.part.cycle(h.now);
    ASSERT_EQ(h.part.replies().size(), static_cast<std::size_t>(kLoads));
    EXPECT_EQ(h.part.stats().get("replies"),
              static_cast<std::uint64_t>(kLoads));
    std::vector<bool> seen(kLoads, false);
    while (!h.part.replies().empty()) {
        const MemRequest r = h.part.replies().take();
        const auto i = static_cast<std::size_t>(r.line / kLineSize);
        ASSERT_LT(i, seen.size());
        EXPECT_FALSE(seen[i]) << "line " << r.line << " replied twice";
        seen[i] = true;
    }
    EXPECT_FALSE(h.part.busy());
}

TEST(Partition, CompressedDesignMovesFewerBursts)
{
    PartitionHarness base(DesignConfig::base());
    PartitionHarness comp(DesignConfig::hw());
    for (int i = 0; i < 32; ++i) {
        base.part.accept(base.makeLoad(static_cast<Addr>(i) * kLineSize),
                         base.now);
        comp.part.accept(comp.makeLoad(static_cast<Addr>(i) * kLineSize),
                         comp.now);
    }
    base.drain();
    comp.drain();
    EXPECT_LT(comp.part.dram().stats().get("data_bursts"),
              base.part.dram().stats().get("data_bursts"));
}

TEST(Partition, CompressedReplyCarriesEncoding)
{
    PartitionHarness h(DesignConfig::hw());
    h.part.accept(h.makeLoad(0), h.now);
    ASSERT_TRUE(h.runUntilReply());
    const MemRequest reply = h.part.replies().front();
    EXPECT_TRUE(reply.compressed);
    EXPECT_LT(reply.payload_bytes, kLineSize);
}

TEST(Partition, HwMemDesignDecompressesAtTheMc)
{
    PartitionHarness h(DesignConfig::hwMem());
    h.part.accept(h.makeLoad(0), h.now);
    ASSERT_TRUE(h.runUntilReply());
    const MemRequest reply = h.part.replies().front();
    // Interconnect payload is uncompressed in HW-BDI-Mem.
    EXPECT_FALSE(reply.compressed);
    EXPECT_EQ(reply.payload_bytes, kLineSize);
    EXPECT_EQ(h.part.stats().get("mc_decompressions"), 1u);
}

TEST(Partition, FullLineStoreAllocatesDirtyAndWritesBackOnEviction)
{
    PartitionConfig cfg;
    cfg.l2.size_bytes = 16 * 1024;  // tiny L2 to force evictions
    PartitionHarness h(DesignConfig::base(), cfg);
    const int lines = 16 * 1024 / kLineSize + 64;
    for (int i = 0; i < lines; ++i) {
        while (!h.part.canAccept())
            h.part.cycle(h.now++);
        h.part.accept(h.makeStore(static_cast<Addr>(i) * kLineSize, true),
                      h.now);
        h.part.cycle(h.now++);
    }
    h.drain(100000);
    EXPECT_GT(h.part.stats().get("dram_writes_issued"), 0u);
    EXPECT_EQ(h.part.dram().stats().get("reads"), 0u);
}

TEST(Partition, PartialStoreToCompressedMemoryFetchesFirst)
{
    PartitionHarness h(DesignConfig::hw());
    h.part.accept(h.makeStore(0, false), h.now);
    h.drain();
    // Section 4.2.2 worst case: read-modify-write.
    EXPECT_EQ(h.part.stats().get("partial_store_fills"), 1u);
    EXPECT_EQ(h.part.dram().stats().get("reads"), 1u);
}

TEST(Partition, PartialStoreToUncompressedMemoryWritesThrough)
{
    PartitionHarness h(DesignConfig::base());
    h.part.accept(h.makeStore(0, false), h.now);
    h.drain();
    EXPECT_EQ(h.part.stats().get("partial_store_writethrough"), 1u);
    EXPECT_EQ(h.part.dram().stats().get("reads"), 0u);
    EXPECT_EQ(h.part.dram().stats().get("writes"), 1u);
}

TEST(Partition, MdCacheMissesPiggybackOnPageWalks)
{
    PartitionHarness h(DesignConfig::hw());
    // Touch widely-spaced regions: every access misses both the TLB
    // and the MD cache; the metadata fetch rides along with the page
    // walk (footnote 4), so only one overhead burst per access.
    for (int i = 0; i < 16; ++i) {
        h.part.accept(
            h.makeLoad(static_cast<Addr>(i) * (1u << 22)), h.now);
        h.part.cycle(h.now++);
    }
    h.drain();
    EXPECT_GT(h.part.stats().get("md_misses"), 10u);
    EXPECT_EQ(h.part.stats().get("md_piggybacked"),
              h.part.stats().get("md_misses"));
    EXPECT_EQ(h.part.dram().stats().get("overhead_bursts"),
              h.part.stats().get("tlb_misses"));
}

TEST(Partition, MdMissWithTlbHitChargesItsOwnBurst)
{
    // Disable the TLB so MD misses cannot piggyback.
    PartitionConfig cfg;
    cfg.model_tlb = false;
    PartitionHarness h(DesignConfig::hw(), cfg);
    for (int i = 0; i < 16; ++i) {
        h.part.accept(
            h.makeLoad(static_cast<Addr>(i) * (1u << 22)), h.now);
        h.part.cycle(h.now++);
    }
    h.drain();
    EXPECT_GT(h.part.stats().get("md_misses"), 10u);
    EXPECT_EQ(h.part.dram().stats().get("overhead_bursts"),
              h.part.stats().get("md_misses"));
}

TEST(Partition, DirtyMetadataEvictionsChargeWritebacks)
{
    // Stores update metadata in place, so the MD entry they touch is
    // dirty; once the working set overflows a small MD cache, evicting
    // those entries must surface as md_writebacks with their own DRAM
    // overhead burst (the bug fixed here: the store path used to insert
    // clean and silently drop the eviction).
    PartitionConfig cfg;
    cfg.md_size_bytes = 512;    // 8 entries: 32 regions thrash it
    cfg.model_tlb = false;      // no piggybacking; count bursts exactly
    PartitionHarness h(DesignConfig::hw(), cfg);
    for (int pass = 0; pass < 2; ++pass)
        for (int i = 0; i < 32; ++i) {
            h.part.accept(
                h.makeStore(static_cast<Addr>(i) * (1u << 22), true),
                h.now);
            h.part.cycle(h.now++);
        }
    h.drain();
    EXPECT_GT(h.part.stats().get("md_writebacks"), 0u);
    // Each miss and each dirty writeback costs one overhead burst.
    EXPECT_EQ(h.part.dram().stats().get("overhead_bursts"),
              h.part.stats().get("md_misses") +
                  h.part.stats().get("md_writebacks"));
}

TEST(Partition, LoadOnlyTrafficNeverDirtiesMetadata)
{
    PartitionConfig cfg;
    cfg.md_size_bytes = 512;
    cfg.model_tlb = false;
    PartitionHarness h(DesignConfig::hw(), cfg);
    for (int pass = 0; pass < 2; ++pass)
        for (int i = 0; i < 32; ++i) {
            h.part.accept(
                h.makeLoad(static_cast<Addr>(i) * (1u << 22)), h.now);
            h.part.cycle(h.now++);
        }
    h.drain();
    EXPECT_GT(h.part.stats().get("md_misses"), 8u);
    EXPECT_EQ(h.part.stats().get("md_writebacks"), 0u);
}

TEST(Partition, IdealDesignSkipsMetadataButStillWalksPages)
{
    PartitionConfig cfg;
    PartitionHarness h(DesignConfig::ideal(), cfg);
    for (int i = 0; i < 8; ++i) {
        h.part.accept(h.makeLoad(static_cast<Addr>(i) * (1u << 22)),
                      h.now);
        h.part.cycle(h.now++);
    }
    h.drain();
    EXPECT_EQ(h.part.stats().get("md_lookups"), 0u);
    EXPECT_EQ(h.part.dram().stats().get("overhead_bursts"),
              h.part.stats().get("tlb_misses"));
}

TEST(Partition, CompressedL2VariantHoldsMoreLines)
{
    PartitionConfig small;
    small.l2.size_bytes = 16 * 1024;
    PartitionHarness plain(DesignConfig::caba(), small);
    PartitionHarness big(DesignConfig::cabaCompressedCache(1, 4), small);
    const int lines = 3 * (16 * 1024 / kLineSize);  // 3x nominal capacity
    for (auto *h : {&plain, &big}) {
        for (int i = 0; i < lines; ++i) {
            while (!h->part.canAccept())
                h->part.cycle(h->now++);
            h->part.accept(
                h->makeLoad(static_cast<Addr>(i) * kLineSize), h->now);
            h->part.cycle(h->now++);
        }
        h->drain(200000);
    }
    EXPECT_GT(big.part.l2().residentLines(),
              plain.part.l2().residentLines());
}

} // namespace
} // namespace caba

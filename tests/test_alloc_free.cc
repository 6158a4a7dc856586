/**
 * @file
 * The memory request path allocates nothing once warm. This binary
 * replaces the global operator new with a counting one, warms a
 * component up with the traffic it is then measured under, and
 * requires zero heap allocations across the measured stretch:
 *
 *  - a MemoryPartition driven by hand under Base (L2 hits and misses,
 *    merged misses, stalled reads, full and partial stores, dirty
 *    writebacks);
 *  - the same under compressed designs whose compression-model memo
 *    already holds every line the traffic touches;
 *  - the compression model itself, from construction on (its slot
 *    array is reserved up front): memo misses, LRU evictions and
 *    recompressions after full and partial writes, for every codec;
 *  - the Audit lifecycle hooks at a steady number of live requests.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/audit.h"
#include "mem/partition.h"
#include "workloads/data_profile.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace caba {
namespace {

/** Deterministic stream source (no external randomness in tests). */
struct Lcg
{
    std::uint64_t s;

    explicit Lcg(std::uint64_t seed) : s(seed) {}

    std::uint32_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(s >> 33);
    }

    int
    below(int n)
    {
        return static_cast<int>(next() % static_cast<unsigned>(n));
    }
};

/**
 * A partition fed a closed-loop random stream: at most kOutstanding
 * loads in flight, plus stores. Lines come from a pool twice the L2
 * slice, so the stream keeps missing, merging and evicting dirty lines.
 */
class TrafficHarness
{
  public:
    static constexpr int kOutstanding = 96;
    static constexpr int kPoolLines = 4096;

    explicit TrafficHarness(const DesignConfig &design)
        : store_([](Addr line, std::uint8_t *out) {
              generateProfileLine(DataProfile::Pointer, 5, line, out);
          }),
          model_(store_,
                 design.usesCompression() ? design.algo : Algorithm::Bdi,
                 true),
          part_(0, PartitionConfig{}, design,
                design.usesCompression() ? &model_ : nullptr),
          audit_(auditConfig())
    {
        part_.attachAudit(&audit_);
        if (design.usesCompression()) {
            // Warm memo: every line of the pool compressed once.
            for (int i = 0; i < kPoolLines; ++i)
                model_.lookup(lineAt(i));
        }
    }

    void
    run(Cycle cycles)
    {
        for (const Cycle end = now_ + cycles; now_ < end; ++now_) {
            offer();
            part_.cycle(now_);
            while (!part_.replies().empty()) {
                const MemRequest reply = part_.replies().take();
                audit_.onRetire(reply);
                --outstanding_;
            }
        }
    }

    std::uint64_t replies() const { return part_.stats().get("replies"); }
    const MemoryPartition &partition() const { return part_; }
    const CompressionModel &model() const { return model_; }
    const Audit &audit() const { return audit_; }

  private:
    static AuditConfig
    auditConfig()
    {
        AuditConfig cfg;
        cfg.ignore_env = true;
        return cfg;
    }

    static Addr lineAt(int i) { return static_cast<Addr>(i) * kLineSize; }

    void
    offer()
    {
        if (!part_.canAccept() || rng_.below(100) >= 70)
            return;
        MemRequest r;
        r.id = next_id_++;
        // Half the traffic on a hot eighth of the pool: L2 hits and
        // merged misses alongside the streaming misses.
        const int i = rng_.below(2) == 0 ? rng_.below(kPoolLines / 8)
                                         : rng_.below(kPoolLines);
        r.line = lineAt(i);
        r.created = now_;
        const int kind = rng_.below(100);
        if (kind < 20) {
            r.is_write = true;
            r.full_line = kind < 14;
            r.payload_bytes = kLineSize;
        } else {
            if (outstanding_ >= kOutstanding)
                return;
            r.payload_bytes = 8;
            ++outstanding_;
        }
        audit_.onInject(r, now_);
        part_.accept(r, now_);
    }

    BackingStore store_;
    CompressionModel model_;
    MemoryPartition part_;
    Audit audit_;
    Lcg rng_{42};
    Cycle now_ = 0;
    std::uint64_t next_id_ = 1;
    int outstanding_ = 0;
};

/**
 * Warm-up long enough for every ring, table and pool on the path to
 * reach its peak depth; then the same stream must not allocate. Under
 * Base the read queue also fills, so stalled reads take part.
 */
void
expectAllocationFreeWhenWarm(const DesignConfig &design, bool read_stalls)
{
    TrafficHarness drv(design);
    drv.run(300000);
    const std::uint64_t replies_before = drv.replies();
    const std::uint64_t before = g_allocations.load();
    drv.run(50000);
    const std::uint64_t allocations = g_allocations.load() - before;
    const std::uint64_t replies = drv.replies() - replies_before;
    ASSERT_GT(replies, 5000u) << "the measured stretch moved no traffic";
    EXPECT_EQ(allocations, 0u)
        << allocations << " heap allocations over " << replies
        << " replies";
    const StatSet s = drv.partition().stats();
    EXPECT_GT(s.get("dram_read_merges"), 0u);
    EXPECT_EQ(s.get("dram_stall_events") > 0, read_stalls);
    EXPECT_GT(s.get("dram_writes_issued"), 0u);
    EXPECT_GT(s.get("l2_store_accesses"), 0u);
    EXPECT_GT(drv.partition().l2().hits(), 0u);
    EXPECT_TRUE(drv.audit().failures().empty());
}

TEST(AllocationFree, BasePartitionWhenWarm)
{
    expectAllocationFreeWhenWarm(DesignConfig::base(), true);
}

TEST(AllocationFree, CabaPartitionWithWarmMemo)
{
    expectAllocationFreeWhenWarm(DesignConfig::caba(), false);
}

TEST(AllocationFree, McDecompressionAndCompressedL2WithWarmMemo)
{
    expectAllocationFreeWhenWarm(DesignConfig::hwMem(), false);
    expectAllocationFreeWhenWarm(DesignConfig::cabaCompressedCache(1, 2),
                                 false);
}

TEST(AllocationFree, WarmMemoRecompressesNothing)
{
    TrafficHarness drv(DesignConfig::caba());
    const std::uint64_t compressed =
        drv.model().stats().get("lines_compressed");
    drv.run(20000);
    EXPECT_EQ(drv.model().stats().get("lines_compressed"), compressed);
}

/**
 * A memo a quarter the size of the line pool: two sweeps over the pool
 * miss and evict on every lookup; then each line still memoized is
 * written in full and looked up, and written in part and looked up,
 * which recompresses it in place. Every line was written once before
 * the memo exists, so the store's overlay holds it already and the
 * writes allocate nothing either.
 */
void
expectMemoAllocationFree(Algorithm algo)
{
    constexpr int kPool = 1024;
    constexpr int kCap = kPool / 4;
    BackingStore store([](Addr line, std::uint8_t *out) {
        const auto profile = static_cast<DataProfile>((line / kLineSize) % 8);
        generateProfileLine(profile, 5, line, out);
    });
    auto line_at = [](int i) { return static_cast<Addr>(i) * kLineSize; };
    for (int i = 0; i < kPool; ++i)
        store.writePartial(line_at(i), 0, 1);
    CompressionModel model(store, algo, true, kCap);
    Lcg rng(algo == Algorithm::Bdi ? 1 : 2);

    std::uint64_t before = g_allocations.load();
    for (int sweep = 0; sweep < 2; ++sweep)
        for (int i = 0; i < kPool; ++i)
            model.lookup(line_at(i));
    std::uint64_t allocations = g_allocations.load() - before;
    const StatSet swept = model.stats();    // a StatSet allocates
    before = g_allocations.load();
    for (int i = kPool - kCap; i < kPool; ++i) {
        std::uint8_t data[kLineSize];
        for (std::uint8_t &b : data)
            b = static_cast<std::uint8_t>(rng.below(i % 2 == 0 ? 4 : 256));
        store.write(line_at(i), data);
        model.lookup(line_at(i));
        const int offset = rng.below(kLineSize);
        store.writePartial(line_at(i), offset,
                           1 + rng.below(kLineSize - offset));
        model.lookup(line_at(i));
    }
    allocations += g_allocations.load() - before;
    EXPECT_EQ(allocations, 0u) << algorithmName(algo);

    const StatSet s = model.stats();
    EXPECT_EQ(swept.get("lines_compressed"), 2u * kPool);
    EXPECT_EQ(swept.get("memo_evictions"), 2u * kPool - kCap);
    EXPECT_EQ(s.get("lines_compressed") - swept.get("lines_compressed"),
              2u * kCap)
        << "every write must recompress its line";
    EXPECT_EQ(s.get("memo_evictions"), swept.get("memo_evictions"));
    EXPECT_EQ(model.memoEntries(), static_cast<std::size_t>(kCap));
}

TEST(AllocationFree, MemoMissesEvictionsAndRecompressions)
{
    for (const Algorithm algo : {Algorithm::Bdi, Algorithm::Fpc,
                                 Algorithm::CPack, Algorithm::BestOfAll})
        expectMemoAllocationFree(algo);
}

TEST(AllocationFree, AuditLifecycleHooksAtSteadyLiveCount)
{
    AuditConfig cfg;
    cfg.ignore_env = true;
    Audit audit(cfg);
    struct Req
    {
        std::uint64_t id = 0;
        int src_sm = 0;
        Addr line = 0;
        bool is_write = false;
    };
    constexpr int kLive = 3000;
    std::vector<Req> ring(kLive);
    Lcg rng(9);
    std::uint64_t next_id = 1;
    auto step = [&](int i, Cycle now) {
        Req &r = ring[static_cast<std::size_t>(i)];
        if (r.id != 0)
            audit.onRetire(r);
        r.id = next_id++;
        r.src_sm = rng.below(15);
        r.line = static_cast<Addr>(rng.below(1 << 20)) * kLineSize;
        r.is_write = rng.below(4) == 0;
        audit.onInject(r, now);
        audit.onStage(r, ReqStage::XbarReq);
        audit.onStage(r, ReqStage::AtPartition);
    };
    for (int i = 0; i < 4 * kLive; ++i)
        step(i % kLive, static_cast<Cycle>(i));
    const std::uint64_t before = g_allocations.load();
    for (int i = 0; i < 20 * kLive; ++i)
        step(i % kLive, static_cast<Cycle>(i));
    const std::uint64_t allocations = g_allocations.load() - before;
    EXPECT_EQ(allocations, 0u);
    EXPECT_EQ(audit.liveRequests(), static_cast<std::size_t>(kLive));
    EXPECT_TRUE(audit.failures().empty());
}

TEST(AllocationFree, CountingAllocatorSeesHeapTraffic)
{
    // The zero counts above mean something only if allocations are seen.
    // (Direct calls: a new-expression's allocation may be elided.)
    const std::uint64_t before = g_allocations.load();
    void *p = ::operator new(64);
    ::operator delete(p);
    EXPECT_EQ(g_allocations.load() - before, 1u);
}

} // namespace
} // namespace caba

/**
 * @file
 * SM-core behaviour tests on a single-SM GPU with controlled kernels:
 * scoreboard stalls, SFU structural behaviour, slot classification
 * (grouped into the Figure 1 bars), L1 locality, assist-warp scheduling
 * integration, and the core's sleep (nextWork, kNoWork, skipIdle).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "gpu/gpu_system.h"
#include "harness/runner.h"
#include "workloads/workload.h"

namespace caba {
namespace {

/** Tiny single-kernel workload harness around a custom descriptor. */
RunResult
runTiny(const AppDescriptor &app, const DesignConfig &design,
        int num_sms = 1, int warps = 8)
{
    GpuConfig cfg;
    cfg.num_sms = num_sms;
    cfg.verify_data = true;
    Workload wl(app);
    wl.bindGrid(warps * num_sms);
    GpuSystem gpu(cfg, design, wl.lineGenerator());
    gpu.launch(&wl, warps);
    return gpu.run();
}

AppDescriptor
baseApp()
{
    AppDescriptor app = findApp("CONS");
    app.iterations = 10;
    app.footprint = 4ull << 20;
    return app;
}

TEST(SmCore, ExecutesExactInstructionCount)
{
    AppDescriptor app = baseApp();
    const RunResult r = runTiny(app, DesignConfig::base(), 1, 8);
    Workload wl(app);
    // Every instruction but Exit executes once per trip (the loop body
    // plus its back-edge); Exit issues once per warp.
    const std::uint64_t expect =
        static_cast<std::uint64_t>(wl.program().size() - 1) *
            app.iterations + 1;
    EXPECT_EQ(r.instructions, 8 * expect);
}

TEST(SmCore, SfuHeavyKernelShowsComputeOrDataStalls)
{
    AppDescriptor app = baseApp();
    app.loads = 1;
    app.stores = 0;
    app.alu = 2;
    app.sfu = 6;
    const RunResult r = runTiny(app, DesignConfig::base(), 1, 16);
    const SlotShares s = slotShares(r);
    EXPECT_GT(s.compute + s.data, 0.3);
}

TEST(SmCore, MemoryHeavyKernelShowsMemoryStalls)
{
    AppDescriptor app = baseApp();
    app.loads = 4;
    app.alu = 1;
    const RunResult r = runTiny(app, DesignConfig::base(), 4, 32);
    EXPECT_GT(slotShares(r).memory, 0.35);
}

TEST(SmCore, SmallFootprintHitsInL1)
{
    AppDescriptor app = baseApp();
    // 4KB per stream x 3 load streams = 96 lines, under the 128-line
    // L1 (a larger sweep would LRU-thrash and never hit).
    app.footprint = 4 * 1024;
    app.iterations = 20;
    const RunResult r = runTiny(app, DesignConfig::base(), 1, 8);
    EXPECT_GT(r.stats.get("l1_hits"), r.stats.get("l1_misses"));
}

TEST(SmCore, L1IsWriteEvict)
{
    AppDescriptor app = baseApp();
    app.stores = 1;
    const RunResult r = runTiny(app, DesignConfig::base(), 1, 8);
    // Stores never allocate in L1; loads alone populate it.
    EXPECT_GT(r.stats.get("sm_stores_sent_uncompressed"), 0u);
}

TEST(SmCore, CabaDecompressionBlocksUntilDone)
{
    AppDescriptor app = baseApp();
    app.data = {DataProfile::Pointer, DataProfile::Pointer, 0.0, 0.2};
    const RunResult r = runTiny(app, DesignConfig::caba(), 2, 16);
    EXPECT_GT(r.stats.get("sm_caba_decompressions"), 0u);
    // Every compressed fill went through an assist warp.
    EXPECT_EQ(r.stats.get("sm_caba_decompressions"),
              r.stats.get("sm_fills_compressed"));
}

TEST(SmCore, AssistInstructionsRespectPipelinePorts)
{
    AppDescriptor app = baseApp();
    const RunResult r = runTiny(app, DesignConfig::caba(), 2, 16);
    // Assist instruction count equals the sum of its ALU and MEM parts.
    EXPECT_EQ(r.stats.get("sm_assist_instructions"),
              r.stats.get("sm_assist_alu_issued") +
                  r.stats.get("sm_assist_mem_issued"));
}

TEST(SmCore, StoresAreCompressedThroughTheBuffer)
{
    AppDescriptor app = baseApp();
    app.stores = 1;
    app.data = {DataProfile::SmallInt, DataProfile::SmallInt, 0.0, 0.2};
    const RunResult r = runTiny(app, DesignConfig::caba(), 2, 16);
    EXPECT_GT(r.stats.get("sm_stores_sent_compressed"), 0u);
    EXPECT_EQ(r.stats.get("sm_caba_compressions"),
              r.stats.get("sm_stores_sent_compressed"));
}

TEST(SmCore, CompressedL1TriggersHitDecompression)
{
    AppDescriptor app = baseApp();
    app.footprint = 4 * 1024;   // small enough to produce L1 hits
    app.iterations = 20;
    app.data = {DataProfile::Pointer, DataProfile::Pointer, 0.0, 0.2};
    const RunResult r =
        runTiny(app, DesignConfig::cabaCompressedCache(2, 1), 1, 8);
    EXPECT_GT(r.stats.get("sm_caba_hit_decompressions"), 0u);
}

TEST(SmCore, MemoizationSkipsSfuWork)
{
    AppDescriptor app = baseApp();
    app.sfu = 4;
    app.memo_hit_rate = 0.5;
    GpuConfig cfg;
    cfg.num_sms = 1;
    cfg.extras.memoize = true;
    Workload wl(app);
    wl.bindGrid(8);
    GpuSystem gpu(cfg, DesignConfig::base(), wl.lineGenerator());
    gpu.launch(&wl, 8);
    const RunResult r = gpu.run();
    EXPECT_GT(r.stats.get("sm_memo_hits"), 0u);
    EXPECT_LT(r.stats.get("sm_memo_hits"), r.stats.get("sm_issued_sfu"));
}

TEST(SmCore, MemoizationHitRateComesFromTheApp)
{
    // The SM draws LUT hits at the launched workload's rate: at 1 every
    // SFU op hits, at 0 none does, though each op still spawns its
    // lookup assist warp.
    const auto run = [](double rate) {
        AppDescriptor app = baseApp();
        app.sfu = 4;
        app.memo_hit_rate = rate;
        GpuConfig cfg;
        cfg.num_sms = 1;
        cfg.extras.memoize = true;
        Workload wl(app);
        wl.bindGrid(8);
        GpuSystem gpu(cfg, DesignConfig::base(), wl.lineGenerator());
        gpu.launch(&wl, 8);
        return gpu.run();
    };
    const RunResult all = run(1.0);
    EXPECT_GT(all.stats.get("sm_issued_sfu"), 0u);
    EXPECT_EQ(all.stats.get("sm_memo_hits"), all.stats.get("sm_issued_sfu"));
    const RunResult none = run(0.0);
    EXPECT_GT(none.stats.get("sm_issued_sfu"), 0u);
    EXPECT_EQ(none.stats.get("sm_memo_hits"), 0u);
    EXPECT_GT(none.stats.get("sm_memoize_warps"), 0u);
}

TEST(SmCore, PrefetchingPopulatesL1)
{
    AppDescriptor app = baseApp();
    app.iterations = 30;
    GpuConfig cfg;
    cfg.num_sms = 1;
    cfg.extras.prefetch = true;
    Workload wl(app);
    wl.bindGrid(8);
    GpuSystem gpu(cfg, DesignConfig::base(), wl.lineGenerator());
    gpu.launch(&wl, 8);
    const RunResult r = gpu.run();
    EXPECT_GT(r.stats.get("sm_prefetches_issued"), 0u);
}

TEST(SmCore, StaleCompressionsAreKilled)
{
    // Rewrite the same tiny output region repeatedly: newer stores to a
    // line whose compression is still pending must kill the stale
    // assist warp (Section 3.4).
    AppDescriptor app = baseApp();
    app.stores = 2;
    app.footprint = 2 * 1024;
    app.iterations = 30;
    app.data = {DataProfile::SmallInt, DataProfile::SmallInt, 0.0, 0.2};
    const RunResult r = runTiny(app, DesignConfig::caba(), 1, 8);
    EXPECT_GT(r.stats.get("sm_stale_compressions_killed"), 0u);
    EXPECT_GT(r.stats.get("awc_kills"), 0u);
    // Each stale buffered store kills exactly one assist warp.
    EXPECT_EQ(r.stats.get("sm_stale_compressions_killed"),
              r.stats.get("awc_kills"));
}

// ------------------------------------------------- the SM sleep rule

/**
 * One SM driven by hand: the test plays the memory system, so nothing
 * takes a request or returns a fill unless the test does. The GpuSystem
 * only builds the object graph; its run loop is never used.
 */
class HandSm
{
  public:
    HandSm(const AppDescriptor &app, GpuConfig cfg,
           const DesignConfig &design, int warps)
        : wl_(app)
    {
        cfg.num_sms = 1;
        cfg.audit.level = AuditLevel::Off;
        cfg.audit.ignore_env = true;
        wl_.bindGrid(warps);
        gpu_ = std::make_unique<GpuSystem>(cfg, design, wl_.lineGenerator());
        gpu_->launch(&wl_, warps);
    }

    // The system keeps a pointer to wl_.
    HandSm(const HandSm &) = delete;
    HandSm &operator=(const HandSm &) = delete;

    SmCore &sm() { return gpu_->sm(0); }
    CompressionModel &model() { return *gpu_->model(); }

    /** Ticks the core until it reports no work at now; false if it is
     *  still awake after @p limit cycles. */
    bool
    runUntilAsleep(Cycle limit)
    {
        for (; now < limit; ++now) {
            if (sm().nextWork(now) > now)
                return true;
            sm().cycle(now);
        }
        return false;
    }

    /** Delivers the fill for @p req as the partition would send it. */
    void
    fill(const MemRequest &req)
    {
        MemRequest reply = req;
        reply.compressed =
            gpu_->model() && !model().lookup(req.line).isUncompressed();
        sm().deliver(reply, now);
    }

    Cycle now = 0;

  private:
    Workload wl_;
    std::unique_ptr<GpuSystem> gpu_;
};

/** Loads that nobody serves: two per trip feeding one ALU op. */
AppDescriptor
loadApp()
{
    AppDescriptor app = baseApp();
    app.loads = 2;
    app.alu = 1;
    app.stores = 0;
    return app;
}

GpuConfig
smallOutQueue()
{
    GpuConfig cfg;
    cfg.sm.out_queue = 4;
    return cfg;
}

void
expectSameAccounting(SmCore &a, SmCore &b)
{
    EXPECT_EQ(a.stats().all(), b.stats().all());
    EXPECT_EQ(a.awc().idleFraction(), b.awc().idleFraction());
}

TEST(NoWork, SentinelIsMaximal)
{
    EXPECT_EQ(kNoWork, ~Cycle{0});
    EXPECT_GT(kNoWork, Cycle{1} << 62);
}

TEST(SmCoreSleep, ReplayStalledCoreWithOnlyGlobalHeadsSleeps)
{
    // Nobody takes requests: four misses fill the out-queue and the
    // fifth load replays. Every ready warp's head is a load.
    HandSm ticked(loadApp(), smallOutQueue(), DesignConfig::base(), 8);
    HandSm skipped(loadApp(), smallOutQueue(), DesignConfig::base(), 8);
    ASSERT_TRUE(ticked.runUntilAsleep(200));
    ASSERT_TRUE(skipped.runUntilAsleep(200));
    ASSERT_EQ(ticked.now, skipped.now);
    const Cycle t = ticked.now;
    EXPECT_EQ(ticked.sm().out().size(), 4u);
    EXPECT_GT(ticked.sm().issuableWarps(), 0);
    EXPECT_EQ(ticked.sm().nextWork(t), kNoWork);

    // Ticking the sleeping core and skipping it account the same: every
    // slot memory structural.
    const std::uint64_t mem_slots = ticked.sm().slotCount(kSlotMemStruct);
    for (Cycle c = t; c < t + 300; ++c)
        ticked.sm().cycle(c);
    skipped.sm().skipIdle(t, t + 300);
    expectSameAccounting(ticked.sm(), skipped.sm());
    EXPECT_EQ(ticked.sm().slotCount(kSlotMemStruct), mem_slots + 600);
    EXPECT_EQ(ticked.sm().nextWork(t + 300), kNoWork);

    // An out-queue take ends the replay.
    ticked.sm().out().take();
    EXPECT_EQ(ticked.sm().nextWork(t + 300), t + 300);
}

TEST(SmCoreSleep, PassedOverGlobalHeadsChargeMemoryStructuralSlots)
{
    // Two warps, one per scheduler, each with a load at its head. In
    // each of the first two cycles scheduler 0 issues a load and takes
    // the memory port, so scheduler 1's load is refused without being
    // offered -- and its slot is still a memory-structural stall.
    HandSm h(loadApp(), GpuConfig{}, DesignConfig::base(), 2);
    h.sm().cycle(0);
    h.sm().cycle(1);
    EXPECT_EQ(h.sm().slotCount(kSlotIssued), 2u);
    EXPECT_EQ(h.sm().slotCount(kSlotMemStruct), 2u);
    EXPECT_EQ(h.sm().stats().get("issued_global_loads"), 2u);
}

TEST(SmCoreSleep, ReadyAluHeadPinsAReplayStalledCore)
{
    // No ALU op can ever issue, so a warp whose loads arrive keeps a
    // ready ALU head while the LDST unit still replays.
    GpuConfig cfg = smallOutQueue();
    cfg.sm.alu_inflight_max = 0;
    HandSm h(loadApp(), cfg, DesignConfig::base(), 8);
    ASSERT_TRUE(h.runUntilAsleep(200));
    // Serve one warp's two loads without freeing out-queue room: take
    // every request, fill the first warp's, put them all back.
    std::vector<MemRequest> reqs;
    while (!h.sm().out().empty())
        reqs.push_back(h.sm().out().take());
    ASSERT_EQ(reqs.size(), 4u);
    for (const MemRequest &r : reqs)
        if (r.warp == reqs.front().warp)
            h.fill(r);
    for (const MemRequest &r : reqs)
        h.sm().out().push_back(r);
    EXPECT_EQ(h.sm().nextWork(h.now), h.now);
    // It stays pinned: the refused ALU issue changes nothing, but the
    // core may not assume so.
    for (int k = 0; k < 50; ++k) {
        h.sm().cycle(h.now++);
        ASSERT_EQ(h.sm().nextWork(h.now), h.now);
    }
    EXPECT_EQ(h.sm().out().size(), 4u);
}

TEST(SmCoreSleep, LiveLowPriorityAssistWarpPinsAReplayStalledCore)
{
    // Prefetch assist warps deploy at low priority; with no AWB slot
    // they can never issue, and their eligibility follows the sliding
    // issue window, so the core must never skip over them.
    GpuConfig cfg = smallOutQueue();
    cfg.extras.prefetch = true;
    cfg.caba.awb_low_slots = 0;
    HandSm h(loadApp(), cfg, DesignConfig::base(), 8);
    EXPECT_FALSE(h.runUntilAsleep(300));
    EXPECT_EQ(h.sm().out().size(), 4u);
    EXPECT_FALSE(h.sm().awc().table().empty());
    // Without the prefetcher the same core sleeps within a few cycles.
    HandSm plain(loadApp(), smallOutQueue(), DesignConfig::base(), 8);
    EXPECT_TRUE(plain.runUntilAsleep(300));
}

TEST(SmCoreSleep, CompressedStoresMayOverfillTheOutQueue)
{
    // The LDST drain routes a store only while the out-queue has room,
    // but a compression assist warp releases its store whenever it
    // finishes. Nobody takes requests, so the finished compressions push
    // the queue past its cap -- by at most the store buffer's depth.
    AppDescriptor app = baseApp();
    app.loads = 0;
    app.stores = 1;
    app.data = {DataProfile::SmallInt, DataProfile::SmallInt, 0.0, 0.0};
    GpuConfig cfg = smallOutQueue();
    HandSm h(app, cfg, DesignConfig::caba(), 8);
    std::size_t peak = 0;
    for (; h.now < 2000; ++h.now) {
        h.sm().cycle(h.now);
        peak = std::max(peak, h.sm().out().size());
    }
    EXPECT_GT(peak, static_cast<std::size_t>(cfg.sm.out_queue));
    EXPECT_LE(peak, static_cast<std::size_t>(cfg.sm.out_queue +
                                             cfg.caba.store_buffer));
    EXPECT_GT(h.sm().stats().get("stores_sent_compressed"), 0u);
    for (std::size_t i = 0; i < h.sm().out().size(); ++i)
        EXPECT_TRUE(h.sm().out()[i].is_write) << "request " << i;
}

TEST(SmCoreSleep, AwtFullCompressedHitReplayPinsTheCore)
{
    // Compressed L1 with a one-entry AWT: every L1 hit needs a
    // decompression assist warp, so a hit that finds the AWT full
    // replays -- and re-counts the hit and an AWT rejection each cycle.
    // That replay is not pure, so it pins the core even when the AWT's
    // only warp is waiting on its own latency.
    AppDescriptor app = loadApp();
    app.loads = 1;
    app.footprint = kLineSize;  // every load reads the same line
    app.data = {DataProfile::SmallInt, DataProfile::SmallInt, 0.0, 0.0};
    GpuConfig cfg;
    cfg.caba.awt_entries = 1;
    HandSm h(app, cfg, DesignConfig::cabaCompressedCache(2, 1), 4);
    ASSERT_FALSE(h.model().lookup(Addr{1} << 33).isUncompressed());
    int pinned_by_replay = 0;
    for (; h.now < 3000 && h.sm().busy(); ++h.now) {
        // Serve every request at once (fills land the next cycle).
        while (!h.sm().out().empty())
            h.fill(h.sm().out().take());
        const StatSet before = h.sm().awc().stats();
        const std::uint64_t hits_before = h.sm().stats().get("l1_load_hits");
        h.sm().cycle(h.now);
        const bool replayed =
            h.sm().awc().stats().get("awt_full_rejections") >
                before.get("awt_full_rejections") &&
            h.sm().stats().get("l1_load_hits") > hits_before;
        if (!replayed)
            continue;
        ASSERT_EQ(h.sm().nextWork(h.now + 1), h.now + 1);
        bool aw_waiting = true;
        for (const AssistWarp &aw : h.sm().awc().table())
            aw_waiting = aw_waiting && aw.ready_at > h.now + 1;
        if (aw_waiting && h.sm().out().empty())
            ++pinned_by_replay;
    }
    EXPECT_FALSE(h.sm().busy());
    EXPECT_GT(h.sm().stats().get("caba_hit_decompressions"), 0u);
    EXPECT_GT(pinned_by_replay, 0);
}

TEST(GpuSystem, DataIntegrityUnderAllDesigns)
{
    // verify_data = true makes the compression model panic on any
    // round-trip mismatch; surviving a full run of every design over
    // compressible data is the end-to-end integrity property.
    AppDescriptor app = baseApp();
    app.data = {DataProfile::Pointer, DataProfile::Text, 0.3, 0.1};
    for (auto design :
         {DesignConfig::hwMem(), DesignConfig::hw(), DesignConfig::caba(),
          DesignConfig::ideal(),
          DesignConfig::caba(Algorithm::Fpc),
          DesignConfig::caba(Algorithm::CPack),
          DesignConfig::caba(Algorithm::BestOfAll)}) {
        const RunResult r = runTiny(app, design, 2, 16);
        EXPECT_GT(r.cycles, 0u) << design.name;
    }
}

} // namespace
} // namespace caba

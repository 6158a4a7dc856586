/**
 * @file
 * Whole-GPU behaviour: determinism (bit-identical cycle counts across
 * runs), bandwidth-scaling monotonicity, drain semantics, multi-SM
 * partition routing and reply routing, and the occupancy-driven launch
 * path.
 */
#include <gtest/gtest.h>

#include <memory>

#include "gpu/gpu_system.h"
#include "harness/runner.h"

namespace caba {
namespace {

AppDescriptor
tinyApp()
{
    AppDescriptor app = findApp("CONS");
    app.iterations = 8;
    app.footprint = 2ull << 20;
    return app;
}

RunResult
runSystem(const AppDescriptor &app, const DesignConfig &design,
          GpuConfig cfg = {}, int warps = 12)
{
    Workload wl(app);
    wl.bindGrid(warps * cfg.num_sms);
    GpuSystem gpu(cfg, design, wl.lineGenerator());
    gpu.launch(&wl, warps);
    return gpu.run();
}

TEST(GpuSystem, DeterministicAcrossRuns)
{
    const AppDescriptor app = tinyApp();
    const RunResult a = runSystem(app, DesignConfig::caba());
    const RunResult b = runSystem(app, DesignConfig::caba());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stats.get("dram_bursts"), b.stats.get("dram_bursts"));
    EXPECT_EQ(a.stats.get("sm_assist_instructions"),
              b.stats.get("sm_assist_instructions"));
}

TEST(GpuSystem, MoreBandwidthNeverHurtsMemoryBoundWork)
{
    const AppDescriptor app = findApp("CONS");
    Cycle prev = ~Cycle{0};
    for (double bw : {0.5, 1.0, 2.0}) {
        GpuConfig cfg;
        cfg.bw_scale = bw;
        const RunResult r = runSystem(app, DesignConfig::base(), cfg, 24);
        EXPECT_LT(r.cycles, prev);
        prev = r.cycles;
    }
}

/** tinyApp() on a default GPU under Base, run to completion; the
 *  system stays inspectable afterwards. */
struct TinyBaseRun
{
    GpuConfig cfg;
    Workload wl{tinyApp()};
    std::unique_ptr<GpuSystem> gpu;
    RunResult r;

    TinyBaseRun()
    {
        wl.bindGrid(12 * cfg.num_sms);
        gpu = std::make_unique<GpuSystem>(cfg, DesignConfig::base(),
                                          wl.lineGenerator());
        gpu->launch(&wl, 12);
        r = gpu->run();
    }
};

TEST(GpuSystem, AllPartitionsSeeTraffic)
{
    TinyBaseRun run;
    // 256B channel interleave spreads a streaming footprint over every
    // partition, and each partition answers every load it takes; a
    // router that sent every request to one partition fails here.
    EXPECT_GT(run.r.stats.get("part_loads_in"), 0u);
    EXPECT_EQ(run.r.stats.get("part_loads_in"),
              run.r.stats.get("part_replies"));
    for (int p = 0; p < run.cfg.num_partitions; ++p) {
        const StatSet s = run.gpu->partition(p).stats();
        EXPECT_GT(s.get("loads_in"), 0u) << "partition " << p;
        EXPECT_EQ(s.get("replies"), s.get("loads_in")) << "partition " << p;
    }
}

TEST(GpuSystem, RepliesReturnToTheRequestingSm)
{
    TinyBaseRun run;
    // Under Base every L1 miss that merges into no MSHR sends one read,
    // and each read's reply fills the SM that sent it.
    for (int i = 0; i < run.cfg.num_sms; ++i) {
        const StatSet s = run.gpu->sm(i).stats();
        EXPECT_GT(s.get("fills"), 0u) << "SM " << i;
        EXPECT_EQ(s.get("fills"),
                  s.get("l1_load_misses") - s.get("mshr_merges"))
            << "SM " << i;
    }
}

TEST(GpuSystem, DoneImpliesFullyDrained)
{
    GpuConfig cfg;
    Workload wl(tinyApp());
    wl.bindGrid(12 * cfg.num_sms);
    GpuSystem gpu(cfg, DesignConfig::caba(), wl.lineGenerator());
    gpu.launch(&wl, 12);
    while (!gpu.done())
        gpu.step();
    // Stepping a finished system is a no-op for every counter we track.
    const Cycle cycles_at_done = gpu.now();
    gpu.step();
    EXPECT_TRUE(gpu.done());
    EXPECT_EQ(gpu.now(), cycles_at_done + 1);
}

TEST(GpuSystem, SmallerGpuStillCorrect)
{
    GpuConfig cfg;
    cfg.num_sms = 2;
    cfg.num_partitions = 2;
    const RunResult r =
        runSystem(tinyApp(), DesignConfig::caba(), cfg, 8);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.compression_ratio, 1.0);
}

TEST(GpuSystem, OccupancyLimitsLaunchedWarps)
{
    // RAY: 40 regs/thread, 128 threads/block -> 6 blocks -> 24 warps.
    Workload wl(findApp("RAY"));
    EXPECT_EQ(wl.warpsPerSm(0), 24);
    // CABA's 2 assist regs/thread still fit (42 regs -> 6 blocks).
    EXPECT_EQ(wl.warpsPerSm(2), 24);
}

TEST(GpuSystem, VerifyModeCatchesNothingOnHealthyCodecs)
{
    GpuConfig cfg;
    cfg.verify_data = true;     // panics on any round-trip mismatch
    const RunResult r =
        runSystem(tinyApp(), DesignConfig::caba(Algorithm::BestOfAll),
                  cfg);
    EXPECT_GT(r.stats.get("model_lines_compressed"), 0u);
}

} // namespace
} // namespace caba

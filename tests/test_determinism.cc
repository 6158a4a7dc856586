/**
 * @file
 * The run-loop invariants: quiescence skipping and the event-driven
 * scheduler in GpuSystem::run() must both be invisible. For one small
 * app across all five Section 6 design points, and across the
 * configurations whose replays and assist warps the SM sleep rule must
 * respect (compressed L1, prefetch, memoization, profiling assist
 * warps, loose round-robin), every combination of {event-driven,
 * walk-everything} x {fast-forward, ticked} must agree on EVERY
 * observable of RunResult — cycles, instructions, the Figure 1
 * breakdown, every merged counter and gauge, every histogram, every
 * derived double, and the whole sampled timeline. Run-to-run
 * repeatability rides along.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

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
runSystem(const DesignConfig &design, bool fast_forward,
          bool event_driven = true, GpuConfig cfg = GpuConfig{},
          const AppDescriptor &app = tinyApp())
{
    cfg.fast_forward = fast_forward;
    cfg.event_driven = event_driven;
    // A short interval lands samples inside skipped spans.
    cfg.sample_interval = 512;
    Workload wl(app);
    const int warps = 12;
    wl.bindGrid(warps * cfg.num_sms);
    GpuSystem gpu(cfg, design, wl.lineGenerator());
    gpu.launch(&wl, warps);
    return gpu.run();
}

/** Field-by-field equality over everything RunResult exposes. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.bw_utilization, b.bw_utilization);
    EXPECT_EQ(a.compression_ratio, b.compression_ratio);
    EXPECT_EQ(a.md_hit_rate, b.md_hit_rate);

    EXPECT_EQ(a.breakdown.active, b.breakdown.active);
    EXPECT_EQ(a.breakdown.mem_stall, b.breakdown.mem_stall);
    EXPECT_EQ(a.breakdown.comp_stall, b.breakdown.comp_stall);
    EXPECT_EQ(a.breakdown.data_stall, b.breakdown.data_stall);
    EXPECT_EQ(a.breakdown.idle, b.breakdown.idle);

    EXPECT_EQ(a.energy.total, b.energy.total);
    EXPECT_EQ(a.energy.core, b.energy.core);
    EXPECT_EQ(a.energy.dram, b.energy.dram);

    // Every counter and gauge, by name.
    EXPECT_EQ(a.stats.all(), b.stats.all());
    // Every histogram (Distribution has full operator==).
    EXPECT_EQ(a.stats.allDists().size(), b.stats.allDists().size());
    for (const auto &[name, dist] : a.stats.allDists()) {
        const Distribution *other = b.stats.findDist(name);
        ASSERT_NE(other, nullptr) << name;
        EXPECT_TRUE(dist == *other) << name;
    }

    // The timeline samples, including ones emitted mid-skip.
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        EXPECT_EQ(a.timeline[i].cycle, b.timeline[i].cycle) << i;
        EXPECT_EQ(a.timeline[i].instructions, b.timeline[i].instructions)
            << i;
        EXPECT_EQ(a.timeline[i].dram_bursts, b.timeline[i].dram_bursts)
            << i;
    }
}

struct NamedDesign
{
    const char *name;
    DesignConfig design;
};

std::vector<NamedDesign>
allDesigns()
{
    return {
        {"Base", DesignConfig::base()},
        {"HW-BDI-Mem", DesignConfig::hwMem()},
        {"HW-BDI", DesignConfig::hw()},
        {"CABA-BDI", DesignConfig::caba()},
        {"Ideal-BDI", DesignConfig::ideal()},
    };
}

TEST(Determinism, FastForwardIsBitIdenticalAcrossAllDesigns)
{
    for (const NamedDesign &d : allDesigns()) {
        SCOPED_TRACE(d.name);
        const RunResult ff = runSystem(d.design, true);
        const RunResult ticked = runSystem(d.design, false);
        expectIdentical(ff, ticked);
    }
}

TEST(Determinism, EventDrivenIsBitIdenticalAcrossAllDesigns)
{
    // The four loop variants — {event-driven, walk-everything} x
    // {fast-forward, ticked} — must agree on every observable.
    for (const NamedDesign &d : allDesigns()) {
        SCOPED_TRACE(d.name);
        const RunResult event_ff = runSystem(d.design, true, true);
        const RunResult event_ticked = runSystem(d.design, false, true);
        const RunResult legacy_ff = runSystem(d.design, true, false);
        const RunResult legacy_ticked = runSystem(d.design, false, false);
        expectIdentical(event_ff, legacy_ff);
        expectIdentical(event_ff, event_ticked);
        expectIdentical(legacy_ff, legacy_ticked);
    }
}

/** A design point plus the machine and app tweaks it needs. */
struct NamedConfig
{
    const char *name;
    DesignConfig design;
    GpuConfig cfg;
    AppDescriptor app;
};

/** Few MSHRs and a short out-queue, so LDST replay stalls (and the SM
 *  sleeping through them) happen in every configuration below. */
GpuConfig
pressured()
{
    GpuConfig cfg;
    cfg.sm.mshr_entries = 8;
    cfg.sm.out_queue = 4;
    return cfg;
}

std::vector<NamedConfig>
extraConfigs()
{
    std::vector<NamedConfig> out;
    // Compressed L1 over an L1-sized footprint with a small AWT: hits
    // replay (re-counting themselves) while the AWT is full.
    NamedConfig l1{"CABA-L1-2x", DesignConfig::cabaCompressedCache(2, 1),
                   pressured(), tinyApp()};
    l1.cfg.caba.awt_entries = 4;
    l1.app.footprint = 8 * 1024;
    l1.app.data = {DataProfile::SmallInt, DataProfile::Pointer, 0.0, 0.1};
    out.push_back(l1);
    // Compressed L2 rides along (partition-side tag factor).
    out.push_back({"CABA-L2-2x", DesignConfig::cabaCompressedCache(1, 2),
                   pressured(), tinyApp()});
    NamedConfig pf{"Prefetch", DesignConfig::base(), pressured(),
                   tinyApp()};
    pf.cfg.extras.prefetch = true;
    out.push_back(pf);
    NamedConfig memo{"Memoize", DesignConfig::base(), pressured(),
                     tinyApp()};
    memo.cfg.extras.memoize = true;
    memo.cfg.extras.memo_hit_rate = 0.5;
    memo.app.sfu = 3;
    out.push_back(memo);
    NamedConfig prof{"Profile-AW", DesignConfig::caba(), pressured(),
                     tinyApp()};
    prof.cfg.extras.profile = true;
    prof.cfg.extras.profile_interval = 200;
    out.push_back(prof);
    NamedConfig lrr{"LRR", DesignConfig::base(), pressured(), tinyApp()};
    lrr.cfg.sm.gto = false;
    out.push_back(lrr);
    return out;
}

TEST(Determinism, LoopModesAreBitIdenticalAcrossReplayAndAssistConfigs)
{
    for (const NamedConfig &c : extraConfigs()) {
        SCOPED_TRACE(c.name);
        const RunResult event_ff =
            runSystem(c.design, true, true, c.cfg, c.app);
        const RunResult event_ticked =
            runSystem(c.design, false, true, c.cfg, c.app);
        const RunResult legacy_ff =
            runSystem(c.design, true, false, c.cfg, c.app);
        const RunResult legacy_ticked =
            runSystem(c.design, false, false, c.cfg, c.app);
        expectIdentical(event_ff, legacy_ff);
        expectIdentical(event_ff, event_ticked);
        expectIdentical(legacy_ff, legacy_ticked);
    }
}

TEST(Determinism, ExtraConfigsExerciseTheirMechanisms)
{
    // Guard against the matrix above passing vacuously.
    for (const NamedConfig &c : extraConfigs()) {
        SCOPED_TRACE(c.name);
        const RunResult r = runSystem(c.design, true, true, c.cfg, c.app);
        const std::string name = c.name;
        if (name == "CABA-L1-2x") {
            EXPECT_GT(r.stats.get("sm_caba_hit_decompressions"), 0u);
            EXPECT_GT(r.stats.get("awc_awt_full_rejections"), 0u);
        } else if (name == "Prefetch") {
            EXPECT_GT(r.stats.get("sm_prefetches_issued"), 0u);
        } else if (name == "Memoize") {
            EXPECT_GT(r.stats.get("sm_memo_hits"), 0u);
        } else if (name == "Profile-AW") {
            EXPECT_GT(r.stats.get("sm_profile_samples"), 0u);
        }
        EXPECT_GT(r.breakdown.mem_stall, 0u);
    }
}

TEST(Determinism, FastForwardActuallySkipsCycles)
{
    // Guard against the invariant passing vacuously: on a memory-bound
    // app the base design must spend most of its time quiescent, and
    // the ticked run must agree on the final cycle count anyway.
    const RunResult r = runSystem(DesignConfig::base(), true);
    EXPECT_GT(r.breakdown.data_stall + r.breakdown.idle,
              r.breakdown.active);
}

TEST(Determinism, RepeatedRunsAreIdentical)
{
    const RunResult a = runSystem(DesignConfig::caba(), true);
    const RunResult b = runSystem(DesignConfig::caba(), true);
    expectIdentical(a, b);
}

} // namespace
} // namespace caba

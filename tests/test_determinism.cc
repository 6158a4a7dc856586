/**
 * @file
 * The run-loop invariant: the event-driven schedule in GpuSystem::run()
 * (SMs sleep until their nextWork() hint or until traffic moves to or
 * from them) must be invisible. For one small app
 * across all five Section 6 design points, across the configurations
 * whose replays and assist warps the SM sleep rule must respect
 * (compressed L1, prefetch, memoization, profiling assist warps), and
 * across randomized small machines, the default
 * schedule and the ticked oracle must agree on EVERY observable of
 * RunResult — cycles, instructions, every merged counter and gauge
 * (the sm_slot_* cycle account among them), every histogram, every
 * derived double, and the whole sampled timeline. Run-to-run
 * repeatability rides along.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
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

/** Runs to completion; EXPECTs that it drained with a clean audit
 *  (only non-fatal audits can get here with failures). */
RunResult
runSystem(const DesignConfig &design, bool ticked,
          GpuConfig cfg = GpuConfig{}, const AppDescriptor &app = tinyApp(),
          int warps = 12)
{
    cfg.ticked = ticked;
    // A short interval lands samples inside skipped spans.
    cfg.sample_interval = 512;
    Workload wl(app);
    wl.bindGrid(warps * cfg.num_sms);
    GpuSystem gpu(cfg, design, wl.lineGenerator());
    gpu.launch(&wl, warps);
    RunResult r = gpu.run();
    EXPECT_TRUE(gpu.done());
    for (const std::string &f : gpu.auditFailures())
        ADD_FAILURE() << "audit: " << f;
    return r;
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

TEST(Determinism, EventDrivenIsBitIdenticalAcrossAllDesigns)
{
    for (const NamedDesign &d : allDesigns()) {
        SCOPED_TRACE(d.name);
        expectIdentical(runSystem(d.design, false),
                        runSystem(d.design, true));
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
    return out;
}

TEST(Determinism, LoopModesAreBitIdenticalAcrossReplayAndAssistConfigs)
{
    for (const NamedConfig &c : extraConfigs()) {
        SCOPED_TRACE(c.name);
        expectIdentical(runSystem(c.design, false, c.cfg, c.app),
                        runSystem(c.design, true, c.cfg, c.app));
    }
}

TEST(Determinism, ExtraConfigsExerciseTheirMechanisms)
{
    // Guard against the matrix above passing vacuously.
    for (const NamedConfig &c : extraConfigs()) {
        SCOPED_TRACE(c.name);
        const RunResult r = runSystem(c.design, false, c.cfg, c.app);
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
        EXPECT_GT(slotShares(r).memory, 0.0);
    }
}

TEST(Determinism, FastForwardActuallySkipsCycles)
{
    // Guard against the invariant passing vacuously: on a memory-bound
    // app the base design must spend most of its time stalled, which
    // is what the event-driven schedule sleeps through.
    const SlotShares s = slotShares(runSystem(DesignConfig::base(), false));
    EXPECT_GT(s.memory + s.data + s.idle, s.active);
}

TEST(Determinism, RepeatedRunsAreIdentical)
{
    const RunResult a = runSystem(DesignConfig::caba(), false);
    const RunResult b = runSystem(DesignConfig::caba(), false);
    expectIdentical(a, b);
}

/** One randomized small machine and workload. */
struct FuzzCase
{
    std::string desc;   ///< Every drawn value, printed before the run.
    DesignConfig design;
    GpuConfig cfg;
    AppDescriptor app;
    int warps = 1;
};

FuzzCase
drawCase(Rng &rng)
{
    auto in = [&rng](int lo, int hi) {
        return lo + static_cast<int>(
                        rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
    };
    std::vector<NamedDesign> designs = allDesigns();
    designs.push_back({"CABA-L1-2x", DesignConfig::cabaCompressedCache(2, 1)});
    designs.push_back({"CABA-L2-2x", DesignConfig::cabaCompressedCache(1, 2)});
    const NamedDesign &d = designs[rng.below(designs.size())];
    const std::vector<AppDescriptor> &apps = allApps();

    FuzzCase c;
    c.design = d.design;
    GpuConfig &cfg = c.cfg;
    cfg.num_sms = in(1, 4);
    cfg.num_partitions = in(1, 4);
    cfg.sm.mshr_entries = in(1, 16);
    cfg.sm.out_queue = in(1, 8);
    cfg.xbar.input_queue = in(1, 8);
    cfg.xbar.output_queue = in(1, 8);
    cfg.xbar.latency = in(1, 12);
    cfg.bw_scale = 0.25 * std::pow(16.0, rng.uniform());   // 0.25x-4x
    cfg.partition.md_size_bytes = 1024 << in(0, 4);        // 1-16 KB
    cfg.caba.awt_entries = in(1, 16);
    cfg.caba.store_buffer = in(1, 16);
    // Audit often and collect failures instead of panicking.
    cfg.audit.level = AuditLevel::Periodic;
    cfg.audit.period = 1024;
    cfg.audit.fatal = false;
    cfg.audit.ignore_env = true;
    c.app = apps[rng.below(apps.size())];
    c.app.iterations = 4;
    c.app.footprint = 256 * 1024;
    c.warps = in(1, 8);

    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s app=%s warps=%d sms=%d partitions=%d mshrs=%d "
                  "out_queue=%d xbar_in=%d xbar_out=%d xbar_latency=%d "
                  "bw_scale=%.4f md_kb=%d awt=%d store_buffer=%d",
                  d.name, c.app.name.c_str(), c.warps, cfg.num_sms,
                  cfg.num_partitions, cfg.sm.mshr_entries, cfg.sm.out_queue,
                  cfg.xbar.input_queue, cfg.xbar.output_queue,
                  cfg.xbar.latency, cfg.bw_scale,
                  cfg.partition.md_size_bytes / 1024, cfg.caba.awt_entries,
                  cfg.caba.store_buffer);
    c.desc = buf;
    return c;
}

TEST(Determinism, RandomSmallConfigsDrainCleanAndMatchTheOracle)
{
    // Every legal configuration must drain with a clean audit, and the
    // event-driven schedule must match the ticked oracle on each. A
    // panic (e.g. a wedge tripping max_cycles) aborts before any EXPECT
    // can report, so each case is printed before it runs.
    Rng rng(2015);
    for (int i = 0; i < 40; ++i) {
        const FuzzCase c = drawCase(rng);
        std::fprintf(stderr, "fuzz case %d: %s\n", i, c.desc.c_str());
        SCOPED_TRACE(c.desc);
        expectIdentical(runSystem(c.design, false, c.cfg, c.app, c.warps),
                        runSystem(c.design, true, c.cfg, c.app, c.warps));
    }
}

} // namespace
} // namespace caba

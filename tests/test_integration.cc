/**
 * @file
 * End-to-end integration tests: full GPU simulations of small workloads
 * under every design point, checking the invariants the paper's results
 * rest on (completion, bandwidth ordering, CABA overhead ordering, data
 * integrity via round-trip verification).
 */
#include <gtest/gtest.h>

#include "harness/runner.h"

namespace caba {
namespace {

ExperimentOptions
smallOpts()
{
    ExperimentOptions o;
    o.scale = 1.0;      // descriptor iteration counts are already small
    o.verify = true;    // every compressed line round-trips exactly
    return o;
}

TEST(Integration, BaseRunsToCompletion)
{
    const RunResult r = runApp(findApp("PVC"), DesignConfig::base(),
                               smallOpts());
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.ipc, 0.0);
}

TEST(Integration, AllDesignsCompleteAndAgreeOnPerWarpWork)
{
    // Regular (application) instructions per warp are design-invariant;
    // only assist instructions and occupancy (CABA reserves assist-warp
    // registers, Section 3.2.2) may differ.
    const AppDescriptor &app = findApp("PVC");
    const DesignConfig designs[] = {
        DesignConfig::base(), DesignConfig::hwMem(), DesignConfig::hw(),
        DesignConfig::caba(), DesignConfig::ideal()};
    ExperimentOptions o = smallOpts();
    std::uint64_t per_warp_base = 0;
    for (const DesignConfig &d : designs) {
        const RunResult r = runApp(app, d, o);
        EXPECT_GT(r.cycles, 0u) << d.name;
        Workload wl(app, o.scale);
        const int warps =
            wl.warpsPerSm(d.usesCaba() ? kAssistRegsPerThread : 0) * 15;
        const std::uint64_t per_warp =
            r.instructions / static_cast<std::uint64_t>(warps);
        if (per_warp_base == 0)
            per_warp_base = per_warp;
        EXPECT_EQ(per_warp, per_warp_base) << d.name;
    }
}

TEST(Integration, CompressionReducesDramBursts)
{
    const AppDescriptor &app = findApp("PVC");    // pointer data: BDI-good
    const RunResult base = runApp(app, DesignConfig::base(), smallOpts());
    const RunResult caba = runApp(app, DesignConfig::caba(), smallOpts());
    EXPECT_LT(caba.stats.get("dram_bursts"),
              base.stats.get("dram_bursts"));
    EXPECT_GT(caba.compression_ratio, 1.3);
}

TEST(Integration, CabaSpeedsUpBandwidthBoundApp)
{
    const AppDescriptor &app = findApp("PVC");
    const RunResult base = runApp(app, DesignConfig::base(), smallOpts());
    const RunResult caba = runApp(app, DesignConfig::caba(), smallOpts());
    EXPECT_LT(caba.cycles, base.cycles);
}

TEST(Integration, IdealIsAtLeastAsFastAsCaba)
{
    const AppDescriptor &app = findApp("PVC");
    const RunResult caba = runApp(app, DesignConfig::caba(), smallOpts());
    const RunResult ideal = runApp(app, DesignConfig::ideal(), smallOpts());
    // Ideal has no decompression overhead; allow a tiny tolerance for
    // second-order scheduling effects (the paper itself reports CABA
    // occasionally beating Ideal by < 3%, Section 6.1).
    EXPECT_LT(static_cast<double>(ideal.cycles),
              static_cast<double>(caba.cycles) * 1.05);
}

TEST(Integration, IncompressibleAppIsNotHurt)
{
    // Paper Section 5: apps without compressible data (sc, SCP) are not
    // degraded because assist warps are not triggered for them.
    const AppDescriptor &app = findApp("SCP");
    const RunResult base = runApp(app, DesignConfig::base(), smallOpts());
    const RunResult caba = runApp(app, DesignConfig::caba(), smallOpts());
    EXPECT_LT(static_cast<double>(caba.cycles),
              static_cast<double>(base.cycles) * 1.06);
}

TEST(Integration, AssistWarpsOnlyInCabaDesigns)
{
    const AppDescriptor &app = findApp("PVC");
    const RunResult hw = runApp(app, DesignConfig::hw(), smallOpts());
    const RunResult caba = runApp(app, DesignConfig::caba(), smallOpts());
    EXPECT_EQ(hw.stats.get("sm_assist_instructions"), 0u);
    EXPECT_GT(caba.stats.get("sm_assist_instructions"), 0u);
    EXPECT_GT(caba.stats.get("sm_caba_decompressions"), 0u);
    EXPECT_GT(caba.stats.get("awc_triggers"), 0u);
}

TEST(Integration, MdCacheOnlyUsedByCompressedMemoryDesigns)
{
    const AppDescriptor &app = findApp("MM");
    const RunResult base = runApp(app, DesignConfig::base(), smallOpts());
    const RunResult hw = runApp(app, DesignConfig::hwMem(), smallOpts());
    EXPECT_EQ(base.stats.get("part_md_lookups"), 0u);
    EXPECT_GT(hw.stats.get("part_md_lookups"), 0u);
}

TEST(Integration, BandwidthUtilizationDropsWithCompression)
{
    const AppDescriptor &app = findApp("PVC");
    const RunResult base = runApp(app, DesignConfig::base(), smallOpts());
    const RunResult caba = runApp(app, DesignConfig::caba(), smallOpts());
    EXPECT_GT(base.bw_utilization, caba.bw_utilization);
}

TEST(Integration, HalfBandwidthSlowsMemoryBoundApp)
{
    const AppDescriptor &app = findApp("PVC");
    ExperimentOptions o = smallOpts();
    const RunResult full = runApp(app, DesignConfig::base(), o);
    o.bw_scale = 0.5;
    const RunResult half = runApp(app, DesignConfig::base(), o);
    EXPECT_GT(half.cycles, full.cycles);
}

TEST(Integration, ComputeBoundAppInsensitiveToBandwidth)
{
    const AppDescriptor &app = findApp("NQU");
    ExperimentOptions o = smallOpts();
    const RunResult full = runApp(app, DesignConfig::base(), o);
    o.bw_scale = 2.0;
    const RunResult dbl = runApp(app, DesignConfig::base(), o);
    const double delta =
        std::abs(static_cast<double>(full.cycles) -
                 static_cast<double>(dbl.cycles)) /
        static_cast<double>(full.cycles);
    // "Little effect" (Section 2); the scaled-down runs leave some
    // cold-miss startup sensitivity, so allow a modest margin.
    EXPECT_LT(delta, 0.12);
}

TEST(Integration, EnergyDropsWithCaba)
{
    const AppDescriptor &app = findApp("PVC");
    const RunResult base = runApp(app, DesignConfig::base(), smallOpts());
    const RunResult caba = runApp(app, DesignConfig::caba(), smallOpts());
    EXPECT_LT(caba.energy.total, base.energy.total);
}

} // namespace
} // namespace caba

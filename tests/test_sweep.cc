/**
 * @file
 * Determinism tests for the parallel sweep executor: fanning the
 * app x design grid out across worker threads must produce results
 * bit-identical to a serial run, and CABA_JOBS=1 must degrade to the
 * old strictly-serial behaviour.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "compress/design.h"
#include "harness/sweep.h"
#include "workloads/app.h"

namespace caba {
namespace {

std::vector<AppDescriptor>
testApps()
{
    // Four apps spanning the access patterns (streaming, strided,
    // irregular) so the grid exercises every simulator path.
    return {findApp("PVC"), findApp("bfs"), findApp("KM"), findApp("nw")};
}

std::vector<DesignConfig>
testDesigns()
{
    return {DesignConfig::base(), DesignConfig::hwMem(),
            DesignConfig::caba()};
}

ExperimentOptions
testOpts()
{
    ExperimentOptions opts;
    opts.scale = 0.25; // keep each cell short; grid still has 12 cells
    return opts;
}

/** Serial ground truth: runApp on the calling thread, app-major order. */
std::map<std::pair<std::string, std::string>, RunResult>
serialBaseline(const std::vector<AppDescriptor> &apps,
               const std::vector<DesignConfig> &designs,
               const ExperimentOptions &opts)
{
    std::map<std::pair<std::string, std::string>, RunResult> cells;
    for (const AppDescriptor &app : apps)
        for (const DesignConfig &d : designs)
            cells.emplace(std::make_pair(app.name, d.name),
                          runApp(app, d, opts));
    return cells;
}

/** Bit-exact comparison of every metric a figure bench reads. */
void
expectIdentical(const RunResult &a, const RunResult &b,
                const std::string &where)
{
    SCOPED_TRACE(where);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.bw_utilization, b.bw_utilization);
    EXPECT_EQ(a.compression_ratio, b.compression_ratio);
    EXPECT_EQ(a.md_hit_rate, b.md_hit_rate);
    EXPECT_EQ(a.energy.core, b.energy.core);
    EXPECT_EQ(a.energy.l1, b.energy.l1);
    EXPECT_EQ(a.energy.l2, b.energy.l2);
    EXPECT_EQ(a.energy.xbar, b.energy.xbar);
    EXPECT_EQ(a.energy.dram, b.energy.dram);
    EXPECT_EQ(a.energy.compression, b.energy.compression);
    EXPECT_EQ(a.energy.static_energy, b.energy.static_energy);
    EXPECT_EQ(a.energy.total, b.energy.total);
    EXPECT_EQ(a.stats.all(), b.stats.all());
}

class SweepTest : public ::testing::Test
{
  protected:
    void SetUp() override { ::unsetenv("CABA_JOBS"); }
    void TearDown() override { ::unsetenv("CABA_JOBS"); }
};

TEST_F(SweepTest, ParallelMatchesSerialBaseline)
{
    const auto apps = testApps();
    const auto designs = testDesigns();
    const ExperimentOptions opts = testOpts();
    const auto baseline = serialBaseline(apps, designs, opts);

    ::setenv("CABA_JOBS", "8", 1);
    const Sweep sweep(apps, designs, opts);

    ASSERT_EQ(sweep.appNames().size(), apps.size());
    ASSERT_EQ(sweep.designNames().size(), designs.size());
    for (const auto &[key, expected] : baseline)
        expectIdentical(sweep.at(key.first, key.second), expected,
                        key.first + " x " + key.second);
}

TEST_F(SweepTest, JobsOptionMatchesSerialBaseline)
{
    const auto apps = testApps();
    const auto designs = testDesigns();
    ExperimentOptions opts = testOpts();
    const auto baseline = serialBaseline(apps, designs, opts);

    opts.jobs = 8; // ExperimentOptions override, no env var involved
    const Sweep sweep(apps, designs, opts);

    for (const auto &[key, expected] : baseline)
        expectIdentical(sweep.at(key.first, key.second), expected,
                        key.first + " x " + key.second);
}

TEST_F(SweepTest, JobsOneDegradesToSerial)
{
    // A 2x2 corner of the grid keeps this case quick: with one worker
    // the sweep must not spin up a pool and must match runApp exactly.
    const std::vector<AppDescriptor> apps = {findApp("PVC"), findApp("bfs")};
    const std::vector<DesignConfig> designs = {DesignConfig::base(),
                                               DesignConfig::caba()};
    const ExperimentOptions opts = testOpts();
    const auto baseline = serialBaseline(apps, designs, opts);

    ::setenv("CABA_JOBS", "1", 1);
    const Sweep sweep(apps, designs, opts);

    for (const auto &[key, expected] : baseline)
        expectIdentical(sweep.at(key.first, key.second), expected,
                        key.first + " x " + key.second);
}

TEST_F(SweepTest, TweakHookAppliesPerDesign)
{
    // The Figure 12 usage: tweak bakes a per-design bandwidth scale in.
    // The hook must run exactly once per cell, on the options the cell
    // actually simulates with, at any worker count.
    const std::vector<AppDescriptor> apps = {findApp("PVC")};
    const std::vector<DesignConfig> designs = {DesignConfig::base(),
                                               DesignConfig::caba()};
    ExperimentOptions opts = testOpts();
    const auto tweak = [](const DesignConfig &d, const ExperimentOptions &o) {
        ExperimentOptions out = o;
        out.bw_scale = d.usesCaba() ? 2.0 : 0.5;
        return out;
    };

    ExperimentOptions lo = opts;
    lo.bw_scale = 0.5;
    ExperimentOptions hi = opts;
    hi.bw_scale = 2.0;
    const RunResult base_lo = runApp(apps[0], designs[0], lo);
    const RunResult caba_hi = runApp(apps[0], designs[1], hi);

    ::setenv("CABA_JOBS", "4", 1);
    const Sweep sweep(apps, designs, opts, tweak);
    expectIdentical(sweep.at("PVC", designs[0].name), base_lo, "base@0.5x");
    expectIdentical(sweep.at("PVC", designs[1].name), caba_hi, "caba@2x");
}

TEST(ThreadPoolTest, RunsEverySubmittedJobOnce)
{
    ThreadPool pool(4);
    std::vector<int> hits(64, 0);
    std::mutex mu;
    for (int i = 0; i < 64; ++i)
        pool.submit([&hits, &mu, i] {
            std::lock_guard<std::mutex> lock(mu);
            ++hits[static_cast<std::size_t>(i)];
        });
    pool.wait();
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1) << "job " << i;
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 8; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), (batch + 1) * 8);
    }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexAtAnyWidth)
{
    for (int jobs : {1, 2, 7}) {
        std::vector<std::atomic<int>> hits(33);
        for (auto &h : hits)
            h = 0;
        parallelFor(33, jobs, [&hits](int i) {
            ++hits[static_cast<std::size_t>(i)];
        });
        for (int i = 0; i < 33; ++i)
            EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
                << "jobs=" << jobs << " index " << i;
    }
}

TEST(SweepNamedCellTest, BuildsFromPrecomputedCellsInFirstAppearanceOrder)
{
    RunResult fast;
    fast.cycles = 100;
    RunResult slow;
    slow.cycles = 200;
    Sweep sweep({{"appB", "Base", slow},
                 {"appB", "CABA-BDI", fast},
                 {"appA", "Base", slow},
                 {"appA", "CABA-BDI", fast}});
    EXPECT_EQ(sweep.appNames(), (std::vector<std::string>{"appB", "appA"}));
    EXPECT_EQ(sweep.designNames(),
              (std::vector<std::string>{"Base", "CABA-BDI"}));
    EXPECT_DOUBLE_EQ(sweep.speedup("appA", "CABA-BDI", "Base"), 2.0);
}

TEST(SweepNamedCellTest, DuplicateCellPanics)
{
    RunResult r;
    r.cycles = 1;
    EXPECT_DEATH(Sweep({{"a", "d", r}, {"a", "d", r}}),
                 "duplicate \\(app, design\\) cell");
}

TEST(SweepSpeedupTest, ZeroCycleBaseCellPanicsWithNames)
{
    // A base cell that retired zero cycles would make every speedup an
    // x/0 (or 0/0) and silently poison downstream geomeans; the guard
    // must name the offending cell.
    RunResult zero;
    zero.cycles = 0;
    RunResult fine;
    fine.cycles = 42;
    Sweep sweep({{"PVC", "Base", zero}, {"PVC", "CABA-BDI", fine}});
    EXPECT_DEATH(sweep.speedup("PVC", "CABA-BDI", "Base"),
                 "zero cycles.*app=PVC.*base design=Base");
}

} // namespace
} // namespace caba

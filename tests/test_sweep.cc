/**
 * @file
 * Determinism tests for the parallel cell driver (runCells): fanning
 * an app x design grid out across worker threads must produce results
 * bit-identical to a serial run, CABA_JOBS=1 must degrade to the
 * strictly-serial behaviour, and cells that differ only in their
 * options must keep their own labels and results. Also the fan-out
 * itself: parallelFor's inline serial path, its thread bound and its
 * exception path.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
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
    const std::vector<Cell> cells = gridCells(apps, designs, opts);
    const Sweep sweep(cells, runCells(cells, 0));

    ASSERT_EQ(sweep.appNames().size(), apps.size());
    ASSERT_EQ(sweep.designNames().size(), designs.size());
    for (const auto &[key, expected] : baseline)
        expectIdentical(sweep.at(key.first, key.second), expected,
                        key.first + " x " + key.second);
}

TEST_F(SweepTest, JobsArgumentMatchesSerialBaseline)
{
    const auto apps = testApps();
    const auto designs = testDesigns();
    const ExperimentOptions opts = testOpts();
    const auto baseline = serialBaseline(apps, designs, opts);

    // The worker count as an argument, no env var involved.
    const std::vector<Cell> cells = gridCells(apps, designs, opts);
    const Sweep sweep(cells, runCells(cells, 8));

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
    const std::vector<Cell> cells = gridCells(apps, designs, opts);
    const Sweep sweep(cells, runCells(cells, 0));

    for (const auto &[key, expected] : baseline)
        expectIdentical(sweep.at(key.first, key.second), expected,
                        key.first + " x " + key.second);
}

TEST_F(SweepTest, CellsDifferingOnlyInOptionsKeepTheirOwnLabelsAndResults)
{
    // The Figure 1 shape: one app under one design at two bandwidth
    // points. Each cell must simulate with its own options and come
    // back under its own label, at any worker count.
    const AppDescriptor app = findApp("PVC");
    ExperimentOptions lo = testOpts();
    lo.bw_scale = 0.5;
    ExperimentOptions hi = testOpts();
    hi.bw_scale = 2.0;
    const RunResult base_lo = runApp(app, DesignConfig::base(), lo);
    const RunResult base_hi = runApp(app, DesignConfig::base(), hi);
    ASSERT_NE(base_lo.cycles, base_hi.cycles)
        << "the two bandwidth points must be distinguishable";

    const std::vector<Cell> cells = {
        {app, "Base@0.5x", DesignConfig::base(), lo},
        {app, "Base@2.0x", DesignConfig::base(), hi}};
    const Sweep sweep(cells, runCells(cells, 4));
    EXPECT_EQ(sweep.appNames(), (std::vector<std::string>{"PVC"}));
    EXPECT_EQ(sweep.designNames(),
              (std::vector<std::string>{"Base@0.5x", "Base@2.0x"}));
    ASSERT_EQ(sweep.cells().size(), 2u);
    EXPECT_EQ(sweep.cells()[0].design, "Base@0.5x");
    EXPECT_EQ(sweep.cells()[1].design, "Base@2.0x");
    expectIdentical(sweep.at("PVC", "Base@0.5x"), base_lo, "base@0.5x");
    expectIdentical(sweep.at("PVC", "Base@2.0x"), base_hi, "base@2x");
}

TEST(ParallelFor, CoversEveryIndexAtAnyWidth)
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

TEST(ParallelFor, OneJobRunsInlineInIndexOrder)
{
    // One job (or one index) starts no thread: every call runs on the
    // caller's thread, in index order.
    const std::thread::id caller = std::this_thread::get_id();
    for (const auto &[n, jobs] : {std::pair{9, 1}, {9, 0}, {1, 8}}) {
        std::vector<int> order;
        bool inline_only = true;
        parallelFor(n, jobs, [&](int i) {
            inline_only = inline_only && std::this_thread::get_id() == caller;
            order.push_back(i);
        });
        std::vector<int> expected(static_cast<std::size_t>(n));
        std::iota(expected.begin(), expected.end(), 0);
        EXPECT_EQ(order, expected) << "n=" << n << " jobs=" << jobs;
        EXPECT_TRUE(inline_only) << "n=" << n << " jobs=" << jobs;
    }
}

TEST(ParallelFor, NeverRunsMoreThanJobsCallsAtOnce)
{
    // Each call holds its slot for a moment so the threads overlap; no
    // call runs on the caller's thread, and at most min(jobs, n)
    // threads ever run calls.
    for (const auto &[n, jobs] : {std::pair{24, 3}, {2, 5}}) {
        std::atomic<int> in_flight{0};
        std::atomic<int> peak{0};
        std::mutex mu;
        std::set<std::thread::id> threads;
        parallelFor(n, jobs, [&](int) {
            const int now = ++in_flight;
            for (int seen = peak.load(); now > seen;)
                peak.compare_exchange_weak(seen, now);
            {
                std::lock_guard<std::mutex> lock(mu);
                threads.insert(std::this_thread::get_id());
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            --in_flight;
        });
        const int cap = std::min(n, jobs);
        EXPECT_LE(peak.load(), cap) << "n=" << n << " jobs=" << jobs;
        EXPECT_LE(static_cast<int>(threads.size()), cap);
        EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);
    }
}

TEST(ParallelFor, ThrowingCallReachesTheCaller)
{
    // The exception stops dispatch and is rethrown once every thread has
    // joined; escaping a worker thread would end the process instead.
    for (int jobs : {1, 4}) {
        std::atomic<int> calls{0};
        try {
            parallelFor(1000, jobs, [&calls](int i) {
                ++calls;
                if (i == 3)
                    throw std::runtime_error("index 3");
            });
            ADD_FAILURE() << "jobs=" << jobs << ": nothing thrown";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "index 3") << "jobs=" << jobs;
        }
        if (jobs == 1) {
            EXPECT_EQ(calls.load(), 4) << "serial dispatch stops at once";
        }
    }
}

/** A sweep of precomputed results, each cell an (app, label, cycles)
 *  triple; nothing is simulated. */
Sweep
precomputed(
    std::initializer_list<std::tuple<const char *, const char *, Cycle>>
        triples)
{
    std::vector<Cell> cells;
    std::vector<RunResult> results;
    for (const auto &[app, label, cycles] : triples) {
        AppDescriptor a;
        a.name = app;
        cells.push_back({a, label, DesignConfig::base(), {}});
        results.emplace_back().cycles = cycles;
    }
    return Sweep(cells, std::move(results));
}

TEST(SweepNamedCellTest, BuildsFromPrecomputedCellsInFirstAppearanceOrder)
{
    Sweep sweep = precomputed({{"appB", "Base", 200},
                               {"appB", "CABA-BDI", 100},
                               {"appA", "Base", 200},
                               {"appA", "CABA-BDI", 100}});
    EXPECT_EQ(sweep.appNames(), (std::vector<std::string>{"appB", "appA"}));
    EXPECT_EQ(sweep.designNames(),
              (std::vector<std::string>{"Base", "CABA-BDI"}));
    EXPECT_DOUBLE_EQ(sweep.speedup("appA", "CABA-BDI", "Base"), 2.0);
}

TEST(SweepNamedCellTest, DuplicateCellPanics)
{
    EXPECT_DEATH(precomputed({{"a", "d", 1}, {"a", "d", 1}}),
                 "duplicate \\(app, design\\) cell");
}

TEST(SweepSpeedupTest, ZeroCycleBaseCellPanicsWithNames)
{
    // A base cell that retired zero cycles would make every speedup an
    // x/0 (or 0/0) and silently poison downstream geomeans; the guard
    // must name the offending cell.
    Sweep sweep = precomputed({{"PVC", "Base", 0}, {"PVC", "CABA-BDI", 42}});
    EXPECT_DEATH(sweep.speedup("PVC", "CABA-BDI", "Base"),
                 "zero cycles.*app=PVC.*base design=Base");
}

} // namespace
} // namespace caba

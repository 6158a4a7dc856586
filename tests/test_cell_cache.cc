/**
 * @file
 * Tests for the in-process cell memo (harness/cell_cache.h): key
 * coverage (semantic inputs in, execution knobs out), sharing of cells
 * across runApp calls through the real runApp path, and runCell's
 * contract with its simulate callback, from one thread and from many.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "compress/design.h"
#include "harness/cell_cache.h"
#include "harness/runner.h"
#include "workloads/app.h"

namespace caba {
namespace {

ExperimentOptions
testOpts()
{
    ExperimentOptions opts;
    opts.scale = 0.05; // one short cell per simulate()
    return opts;
}

/** The options exactly as runCell keys them: scale resolved against
 *  CABA_SCALE (unset in this binary), execution knobs neutralized. */
ExperimentOptions
resolvedOpts(const ExperimentOptions &opts)
{
    ExperimentOptions resolved = opts;
    resolved.scale = opts.scale * scaleFromEnv();
    resolved.jobs = 0;
    return resolved;
}

/** Turns the singleton's memo on for one test and off afterwards
 *  (runApp consults the singleton, so leakage would couple unrelated
 *  tests). */
class CellCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override { CellCache::instance().setEnabled(true); }
    void TearDown() override { CellCache::instance().setEnabled(false); }
};

TEST(CellKey, CoversSemanticInputsAndOnlyThose)
{
    const AppDescriptor app = findApp("PVC");
    const DesignConfig design = DesignConfig::caba();
    const ExperimentOptions opts = resolvedOpts(testOpts());
    const std::string base = cellKeyText(app, design, opts);
    EXPECT_EQ(base, cellKeyText(app, design, opts));

    // Every semantic knob must move the key...
    ExperimentOptions o = opts;
    o.scale *= 2.0;
    EXPECT_NE(base, cellKeyText(app, design, o));
    o = opts;
    o.bw_scale = 0.5;
    EXPECT_NE(base, cellKeyText(app, design, o));
    o = opts;
    o.assist_regs = 4;
    EXPECT_NE(base, cellKeyText(app, design, o));
    o = opts;
    o.verify = true;
    EXPECT_NE(base, cellKeyText(app, design, o));
    o = opts;
    o.extras.memoize = true;
    EXPECT_NE(base, cellKeyText(app, design, o));
    o = opts;
    o.caba.throttle = !o.caba.throttle;
    EXPECT_NE(base, cellKeyText(app, design, o));
    o = opts;
    o.md_cache_kb = 32;
    EXPECT_NE(base, cellKeyText(app, design, o));
    o = opts;
    o.max_warps = 8;
    EXPECT_NE(base, cellKeyText(app, design, o));
    EXPECT_NE(base, cellKeyText(findApp("bfs"), design, opts));
    EXPECT_NE(base, cellKeyText(app, DesignConfig::base(), opts));

    // ...and the worker count must not (runCell neutralizes it; the
    // key renderer never reads it).
    o = opts;
    o.jobs = 7;
    EXPECT_EQ(base, cellKeyText(app, design, o));
}

TEST_F(CellCacheTest, ExecutionKnobsShareOneEntry)
{
    CellCache &cache = CellCache::instance();
    const AppDescriptor app = findApp("PVC");
    ExperimentOptions opts = testOpts();
    (void)runApp(app, DesignConfig::base(), opts);

    opts.jobs = 3;
    (void)runApp(app, DesignConfig::base(), opts);
    const CellCacheStats st = cache.stats();
    EXPECT_EQ(st.simulations, 1u);
    EXPECT_EQ(st.hits, 1u);
}

TEST_F(CellCacheTest, InProcessLayerSharesAcrossCalls)
{
    CellCache &cache = CellCache::instance();
    const AppDescriptor app = findApp("PVC");
    const RunResult first = runApp(app, DesignConfig::base(), testOpts());
    const RunResult again = runApp(app, DesignConfig::base(), testOpts());
    CellCacheStats st = cache.stats();
    EXPECT_EQ(st.simulations, 1u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(again.cycles, first.cycles);
    EXPECT_EQ(again.stats.all(), first.stats.all());

    (void)runApp(app, DesignConfig::caba(), testOpts());
    st = cache.stats();
    EXPECT_EQ(st.simulations, 2u) << "a different design is a new cell";

    // A reset empties the memo and zeroes the counters.
    cache.setEnabled(true);
    (void)runApp(app, DesignConfig::base(), testOpts());
    st = cache.stats();
    EXPECT_EQ(st.simulations, 1u);
    EXPECT_EQ(st.hits, 0u);

    // A disabled memo is bypassed: every call simulates, nothing is
    // remembered or counted.
    cache.setEnabled(false);
    EXPECT_FALSE(cache.enabled());
    (void)runApp(app, DesignConfig::base(), testOpts());
    (void)runApp(app, DesignConfig::base(), testOpts());
    st = cache.stats();
    EXPECT_EQ(st.simulations, 0u);
    EXPECT_EQ(st.hits, 0u);
}

TEST_F(CellCacheTest, HitReturnsTheRememberedResultWithoutSimulating)
{
    CellCache &cache = CellCache::instance();
    const AppDescriptor app = findApp("PVC");
    int calls = 0;
    // Each simulation returns a result no other call returns, so a
    // hit that re-simulated instead of reading the memo would show.
    const auto simulate = [&] {
        RunResult r;
        r.cycles = 1000 + static_cast<Cycle>(++calls);
        return r;
    };

    const RunResult first =
        cache.runCell(app, DesignConfig::base(), testOpts(), simulate);
    const RunResult hit =
        cache.runCell(app, DesignConfig::base(), testOpts(), simulate);
    EXPECT_EQ(calls, 1) << "a hit must not call simulate";
    EXPECT_EQ(hit.cycles, first.cycles);

    const RunResult other =
        cache.runCell(app, DesignConfig::caba(), testOpts(), simulate);
    EXPECT_EQ(calls, 2) << "a different design is a new cell";
    EXPECT_NE(other.cycles, first.cycles);

    const CellCacheStats st = cache.stats();
    EXPECT_EQ(st.simulations, 2u);
    EXPECT_EQ(st.hits, 1u);
}

TEST_F(CellCacheTest, ConcurrentCallersShareOneConsistentMemo)
{
    constexpr int kThreads = 4;
    constexpr int kCallsEach = 64;
    CellCache &cache = CellCache::instance();
    const AppDescriptor app = findApp("PVC");
    std::atomic<int> calls{0};
    // A cell is a pure function of its key: every simulation of it
    // returns the same result.
    const auto simulate = [&] {
        calls.fetch_add(1, std::memory_order_relaxed);
        RunResult r;
        r.cycles = 4242;
        return r;
    };

    std::atomic<int> wrong{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&] {
            for (int i = 0; i < kCallsEach; ++i)
                if (cache.runCell(app, DesignConfig::base(), testOpts(),
                                  simulate)
                        .cycles != 4242)
                    wrong.fetch_add(1, std::memory_order_relaxed);
        });
    for (std::thread &w : workers)
        w.join();

    EXPECT_EQ(wrong.load(), 0);
    CellCacheStats st = cache.stats();
    // Callers that miss together may each simulate; every call is
    // still counted exactly once, and every simulation is counted.
    EXPECT_EQ(st.simulations + st.hits,
              static_cast<std::uint64_t>(kThreads * kCallsEach));
    EXPECT_EQ(st.simulations, static_cast<std::uint64_t>(calls.load()));
    EXPECT_GE(st.simulations, 1u);
    EXPECT_LE(st.simulations, static_cast<std::uint64_t>(kThreads));

    // Once the workers are done, the cell is remembered.
    const int before = calls.load();
    (void)cache.runCell(app, DesignConfig::base(), testOpts(), simulate);
    EXPECT_EQ(calls.load(), before);
    EXPECT_EQ(cache.stats().hits, st.hits + 1);
}

} // namespace
} // namespace caba

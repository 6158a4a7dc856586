/**
 * @file
 * Tests for the experiment registry and the in-process runner
 * (harness/experiment.h) that caba_bench drives: name lookup, the
 * registration invariants (unique names, exactly one shape), the
 * sweep-shaped driver's document layout, byte-identical documents on
 * repeated runs, and a repeated sweep served from the in-process cell
 * cache without simulating. It also pins slotShares, the Figure 1
 * grouping that fig01_cycle_breakdown and caba_cli print.
 *
 * The registered experiment run here is fig02_unallocated_regs — pure
 * occupancy arithmetic, no simulation. The sweep-shaped cases use a
 * local, unregistered experiment over one short cell pair.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_parse.h"
#include "compress/design.h"
#include "harness/cell_cache.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "sim/sm_core.h"
#include "workloads/app.h"

namespace caba {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A per-test output path (ctest runs each case in its own process). */
std::string
outPath(const std::string &suffix)
{
    const auto *info = ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "caba_experiment_" + info->name() + "_" +
           suffix + ".json";
}

const Experiment &
registered(const std::string &name)
{
    const Experiment *e = ExperimentRegistry::instance().find(name);
    EXPECT_NE(e, nullptr) << name << " is not registered";
    static const Experiment missing;
    return e ? *e : missing;
}

/** One app under Base and CABA-BDI; emit adds one row per app. */
Experiment
smallSweepExperiment()
{
    Experiment e;
    e.name = "test_small_sweep";
    e.title = "small sweep";
    e.apps = [] { return std::vector<AppDescriptor>{findApp("PVC")}; };
    e.designs = [] {
        return std::vector<DesignConfig>{DesignConfig::base(),
                                         DesignConfig::caba()};
    };
    e.emit = [](const Sweep &sweep, BenchJson &json) {
        for (const std::string &app : sweep.appNames()) {
            json.beginRow();
            json.field("app", app);
            json.field("speedup", sweep.speedup(app, "CABA-BDI", "Base"));
            json.endRow();
        }
    };
    return e;
}

ExperimentOptions
smallOpts()
{
    ExperimentOptions opts;
    opts.scale = 0.05; // one short cell per simulation
    return opts;
}

// --- The Figure 1 grouping -------------------------------------------------

TEST(SlotSharesTest, GroupsTheNineSlotCategoriesIntoFiveBars)
{
    // Distinct powers of two: any category in the wrong bar, or in two
    // bars, changes some share.
    RunResult r;
    for (int c = 0; c < kNumSlotCategories; ++c)
        r.stats.setCounter(std::string("sm_") + kSlotCategoryNames[c],
                           std::uint64_t{1} << c);
    const auto share = [](std::initializer_list<int> cats) {
        double n = 0;
        for (const int c : cats)
            n += static_cast<double>(std::uint64_t{1} << c);
        return n / ((1 << kNumSlotCategories) - 1);
    };
    const SlotShares s = slotShares(r);
    EXPECT_DOUBLE_EQ(s.active, share({kSlotIssued, kSlotAwIssued}));
    EXPECT_DOUBLE_EQ(s.memory, share({kSlotMemStruct, kSlotMemData}));
    EXPECT_DOUBLE_EQ(s.data, share({kSlotScoreboard}));
    EXPECT_DOUBLE_EQ(s.compute, share({kSlotCompStruct}));
    EXPECT_DOUBLE_EQ(s.idle, share({kSlotIbufEmpty, kSlotSync, kSlotIdle}));
    EXPECT_DOUBLE_EQ(s.active + s.memory + s.data + s.compute + s.idle, 1.0);
}

TEST(SlotSharesTest, NoAccountedSlotsGiveFiveZeros)
{
    const SlotShares s = slotShares(RunResult{});
    EXPECT_EQ(s.active, 0.0);
    EXPECT_EQ(s.memory, 0.0);
    EXPECT_EQ(s.data, 0.0);
    EXPECT_EQ(s.compute, 0.0);
    EXPECT_EQ(s.idle, 0.0);
}

// --- The registry ----------------------------------------------------------

TEST(ExperimentRegistryTest, FindsRegisteredNamesAndNullForUnknownOnes)
{
    const ExperimentRegistry &reg = ExperimentRegistry::instance();
    for (const char *name : {"fig02_unallocated_regs", "fig07_performance",
                             "md_cache_study"}) {
        const Experiment *e = reg.find(name);
        ASSERT_NE(e, nullptr) << name;
        EXPECT_EQ(e->name, name);
    }
    EXPECT_EQ(reg.find("fig99_imaginary"), nullptr);
    EXPECT_EQ(reg.find(""), nullptr);
    EXPECT_EQ(reg.find("FIG07_PERFORMANCE"), nullptr)
        << "lookup is exact, not case-folded";
}

TEST(ExperimentRegistryTest, AllIsSortedByNameAndEveryEntryHasOneShape)
{
    const std::vector<const Experiment *> all =
        ExperimentRegistry::instance().all();
    ASSERT_FALSE(all.empty());
    std::vector<std::string> names;
    for (const Experiment *e : all) {
        names.push_back(e->name);
        EXPECT_FALSE(e->description.empty()) << e->name;
        EXPECT_NE(static_cast<bool>(e->emit), static_cast<bool>(e->body))
            << e->name << ": exactly one of emit or body";
        if (e->emit) {
            EXPECT_TRUE(e->apps && e->designs) << e->name;
            EXPECT_FALSE(e->title.empty()) << e->name;
        }
    }
    std::vector<std::string> sorted = names;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(names, sorted) << "all() must be in name order";
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end());
}

TEST(ExperimentRegistryTest, SweepShapedExperimentsHaveUniqueAppsAndDesigns)
{
    for (const Experiment *e : ExperimentRegistry::instance().all()) {
        if (!e->emit)
            continue;
        std::set<std::string> apps;
        for (const AppDescriptor &a : e->apps())
            EXPECT_TRUE(apps.insert(a.name).second)
                << e->name << ": app " << a.name << " listed twice";
        std::set<std::string> designs;
        for (const DesignConfig &d : e->designs())
            EXPECT_TRUE(designs.insert(d.name).second)
                << e->name << ": design " << d.name << " listed twice";
        EXPECT_FALSE(apps.empty()) << e->name;
        EXPECT_FALSE(designs.empty()) << e->name;
    }

    // The headline figure compares CABA against the uncompressed base.
    std::set<std::string> fig07;
    for (const DesignConfig &d : registered("fig07_performance").designs())
        fig07.insert(d.name);
    EXPECT_EQ(fig07.count("Base"), 1u);
    EXPECT_EQ(fig07.count("CABA-BDI"), 1u);
}

TEST(ExperimentRegistryTest, DuplicateAndShapelessRegistrationsPanic)
{
    ExperimentRegistry &reg = ExperimentRegistry::instance();
    EXPECT_DEATH(reg.add(registered("fig02_unallocated_regs")),
                 "duplicate registration");

    Experiment shapeless;
    shapeless.name = "test_shapeless";
    EXPECT_DEATH(reg.add(shapeless), "exactly one of emit");

    Experiment both = smallSweepExperiment();
    both.body = [](const ExperimentOptions &, BenchJson &) {};
    EXPECT_DEATH(reg.add(both), "exactly one of emit");

    Experiment no_apps = smallSweepExperiment();
    no_apps.apps = nullptr;
    EXPECT_DEATH(reg.add(no_apps), "need apps and designs");

    Experiment unnamed = smallSweepExperiment();
    unnamed.name.clear();
    EXPECT_DEATH(reg.add(unnamed), "empty name");
}

// --- runExperiment ---------------------------------------------------------

class RunExperimentTest : public ::testing::Test
{
  protected:
    // runApp consults the cell-cache singleton; pin it off (whatever
    // CABA_CACHE_DIR says) so every run here really simulates.
    void
    SetUp() override
    {
        CellCache::instance().configure("", kCellCacheCodeVersion, false,
                                         false);
    }

    void TearDown() override { SetUp(); }
};

TEST_F(RunExperimentTest, BodyShapedDocumentIsByteIdenticalAcrossRuns)
{
    const Experiment &e = registered("fig02_unallocated_regs");
    const std::string first = outPath("first");
    const std::string second = outPath("second");
    runExperiment(e, {}, first);
    runExperiment(e, {}, second);

    const std::string a = slurp(first);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, slurp(second))
        << "the same experiment must write the same document";

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(a, &doc, &error)) << error;
    EXPECT_EQ(doc.find("schema")->string, "caba-bench-v1");
    EXPECT_EQ(doc.find("bench")->string, "fig02_unallocated_regs");
    EXPECT_TRUE(doc.find("cells")->array.empty())
        << "Figure 2 runs no simulation";
    EXPECT_EQ(doc.find("rows")->array.size(), allApps().size());
    std::remove(first.c_str());
    std::remove(second.c_str());
}

TEST_F(RunExperimentTest, SweepShapedRunExportsEmittedRowsAndEveryCell)
{
    const std::string path = outPath("doc");
    runExperiment(smallSweepExperiment(), smallOpts(), path);

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(slurp(path), &doc, &error)) << error;
    EXPECT_EQ(doc.find("bench")->string, "test_small_sweep");

    const std::vector<json::Value> &rows = doc.find("rows")->array;
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].find("app")->string, "PVC");
    EXPECT_GT(rows[0].find("speedup")->number, 0.0);

    // The driver appends the sweep's cells after emit(), app-major.
    const std::vector<json::Value> &cells = doc.find("cells")->array;
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].find("app")->string, "PVC");
    EXPECT_EQ(cells[0].find("design")->string, "Base");
    EXPECT_EQ(cells[1].find("design")->string, "CABA-BDI");
    EXPECT_GT(cells[0].find("result")->find("cycles")->number, 0.0);
    std::remove(path.c_str());
}

TEST_F(RunExperimentTest, RepeatedSweepIsServedFromTheInProcessCellCache)
{
    CellCache &cache = CellCache::instance();
    cache.configure("", "test-v1", true, false);
    const Experiment e = smallSweepExperiment();
    const std::string cold = outPath("cold");
    const std::string warm = outPath("warm");

    runExperiment(e, smallOpts(), cold);
    EXPECT_EQ(cache.stats().simulations, 2u);

    runExperiment(e, smallOpts(), warm);
    const CellCacheStats st = cache.stats();
    EXPECT_EQ(st.simulations, 2u)
        << "the repeated run must not simulate any cell";
    EXPECT_EQ(st.inproc_hits, 2u);

    const std::string a = slurp(cold);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, slurp(warm))
        << "a cache-served run must write the same document";
    std::remove(cold.c_str());
    std::remove(warm.c_str());
}

} // namespace
} // namespace caba

/**
 * @file
 * Tests for the experiment registry and the driver (harness/experiment.h)
 * that caba_bench calls: name lookup, the registration invariants
 * (unique names, an emit on every entry, unique (app, label) cells),
 * the driver's document layout, documents byte-identical on repeated
 * runs and at any worker count, and the run plan that simulates a cell
 * several experiments declare once, with each keeping its own labels,
 * order and document. It also pins slotShares, the Figure 1 grouping
 * that fig01_cycle_breakdown and caba_cli print, and that runApp keeps
 * no state between calls.
 *
 * The registered experiment run here is fig02_unallocated_regs — pure
 * occupancy arithmetic, no cells. The cases with cells use local,
 * unregistered experiments of short cells.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json_parse.h"
#include "common/prof.h"
#include "compress/design.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "sim/sm_core.h"
#include "workloads/app.h"
#include "temp_dir.h"

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

/** Parses the document at @p path. */
json::Value
parsed(const std::string &path)
{
    json::Value doc;
    std::string error;
    EXPECT_TRUE(json::parse(slurp(path), &doc, &error))
        << path << ": " << error;
    return doc;
}

/** A per-test output path in this process's own directory. */
std::string
outPath(const std::string &suffix)
{
    const auto *info = ::testing::UnitTest::GetInstance()->current_test_info();
    return test::processTempDir() + "caba_experiment_" + info->name() + "_" +
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
    e.cells = [](const ExperimentOptions &opts) {
        return gridCells({findApp("PVC")},
                         {DesignConfig::base(), DesignConfig::caba()}, opts);
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

/** Not a grid: two apps, each at two bandwidth points and with a small
 *  MD cache, every cell labelled after its options. */
Experiment
perCellOptionsExperiment()
{
    Experiment e;
    e.name = "test_per_cell_options";
    e.title = "per-cell options";
    e.cells = [](const ExperimentOptions &opts) {
        std::vector<Cell> cells;
        for (const char *name : {"PVC", "bfs"}) {
            ExperimentOptions lo = opts;
            lo.bw_scale = 0.5;
            ExperimentOptions hi = opts;
            hi.bw_scale = 2.0;
            ExperimentOptions small_md = opts;
            small_md.md_cache_kb = 2;
            cells.push_back({findApp(name), "Base@0.5x",
                             DesignConfig::base(), lo});
            cells.push_back({findApp(name), "Base@2.0x",
                             DesignConfig::base(), hi});
            cells.push_back({findApp(name), "CABA-BDI@2KB",
                             DesignConfig::caba(), small_md});
        }
        return cells;
    };
    e.emit = [](const Sweep &sweep, BenchJson &json) {
        for (const std::string &app : sweep.appNames()) {
            json.beginRow();
            json.field("app", app);
            json.field("bw_speedup",
                       sweep.speedup(app, "Base@2.0x", "Base@0.5x"));
            json.endRow();
        }
    };
    return e;
}

/** PVC under Base, as smallSweepExperiment declares it, and bfs under
 *  Base; emit adds one row of cycles per app. */
Experiment
overlappingExperiment()
{
    Experiment e;
    e.name = "test_overlapping";
    e.title = "overlapping cells";
    e.cells = [](const ExperimentOptions &opts) {
        return gridCells({findApp("PVC"), findApp("bfs")},
                         {DesignConfig::base()}, opts);
    };
    e.emit = [](const Sweep &sweep, BenchJson &json) {
        for (const std::string &app : sweep.appNames()) {
            json.beginRow();
            json.field("app", app);
            json.field("cycles", sweep.at(app, "Base").cycles);
            json.endRow();
        }
    };
    return e;
}

/** smallSweepExperiment's two cells in the other order, under labels
 *  of its own. */
Experiment
reorderedExperiment()
{
    Experiment e;
    e.name = "test_reordered";
    e.title = "reordered cells";
    e.cells = [](const ExperimentOptions &opts) {
        return std::vector<Cell>{
            {findApp("PVC"), "caba-first", DesignConfig::caba(), opts},
            {findApp("PVC"), "base-last", DesignConfig::base(), opts}};
    };
    e.emit = [](const Sweep &sweep, BenchJson &json) {
        json.beginRow();
        json.field("speedup", sweep.speedup("PVC", "caba-first", "base-last"));
        json.endRow();
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
        EXPECT_FALSE(e->title.empty()) << e->name;
        EXPECT_TRUE(static_cast<bool>(e->emit)) << e->name;
    }
    std::vector<std::string> sorted = names;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(names, sorted) << "all() must be in name order";
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end());
}

TEST(ExperimentRegistryTest, EveryExperimentsAppLabelPairsAreUnique)
{
    for (const Experiment *e : ExperimentRegistry::instance().all()) {
        if (!e->cells)
            continue;
        std::set<std::pair<std::string, std::string>> seen;
        for (const Cell &c : e->cells(ExperimentOptions{}))
            EXPECT_TRUE(seen.insert({c.app.name, c.label}).second)
                << e->name << ": cell (" << c.app.name << ", " << c.label
                << ") declared twice";
        EXPECT_FALSE(seen.empty()) << e->name << ": cells() is empty";
    }

    // The headline figure compares CABA against the uncompressed base.
    std::set<std::string> fig07;
    for (const Cell &c :
         registered("fig07_performance").cells(ExperimentOptions{}))
        fig07.insert(c.label);
    EXPECT_EQ(fig07.count("Base"), 1u);
    EXPECT_EQ(fig07.count("CABA-BDI"), 1u);
}

TEST(ExperimentRegistryTest, DuplicateAndShapelessRegistrationsPanic)
{
    ExperimentRegistry &reg = ExperimentRegistry::instance();
    EXPECT_DEATH(reg.add(registered("fig02_unallocated_regs")),
                 "duplicate registration");

    Experiment shapeless = smallSweepExperiment();
    shapeless.emit = nullptr;
    EXPECT_DEATH(reg.add(shapeless), "no emit");

    Experiment unnamed = smallSweepExperiment();
    unnamed.name.clear();
    EXPECT_DEATH(reg.add(unnamed), "empty name");
}

// --- runExperiments --------------------------------------------------------

TEST(RunExperimentTest, CellFreeDocumentIsByteIdenticalAcrossRuns)
{
    const Experiment &e = registered("fig02_unallocated_regs");
    const std::string first = outPath("first");
    const std::string second = outPath("second");
    runExperiments({&e}, {}, {first}, 0);
    runExperiments({&e}, {}, {second}, 0);

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
}

TEST(RunExperimentTest, RunExportsEmittedRowsAndEveryCell)
{
    const std::string path = outPath("doc");
    const Experiment e = smallSweepExperiment();
    runExperiments({&e}, smallOpts(), {path}, 0);

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(slurp(path), &doc, &error)) << error;
    EXPECT_EQ(doc.find("bench")->string, "test_small_sweep");

    const std::vector<json::Value> &rows = doc.find("rows")->array;
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].find("app")->string, "PVC");
    EXPECT_GT(rows[0].find("speedup")->number, 0.0);

    // The driver appends the cells after emit(), in declared order.
    const std::vector<json::Value> &cells = doc.find("cells")->array;
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].find("app")->string, "PVC");
    EXPECT_EQ(cells[0].find("design")->string, "Base");
    EXPECT_EQ(cells[1].find("design")->string, "CABA-BDI");
    EXPECT_GT(cells[0].find("result")->find("cycles")->number, 0.0);
}

TEST(RunExperimentTest, PerCellOptionsDocumentIsByteIdenticalAtOneAndFourJobs)
{
    const Experiment e = perCellOptionsExperiment();
    const std::string serial = outPath("serial");
    const std::string parallel = outPath("parallel");
    runExperiments({&e}, smallOpts(), {serial}, 1);
    runExperiments({&e}, smallOpts(), {parallel}, 4);

    const std::string a = slurp(serial);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, slurp(parallel)) << "worker count leaked into the document";

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(a, &doc, &error)) << error;
    const std::vector<json::Value> &cells = doc.find("cells")->array;
    ASSERT_EQ(cells.size(), 6u);
    const char *labels[] = {"Base@0.5x", "Base@2.0x", "CABA-BDI@2KB"};
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].find("app")->string, i < 3 ? "PVC" : "bfs") << i;
        EXPECT_EQ(cells[i].find("design")->string, labels[i % 3]) << i;
    }
    // Same app and design, different options: different results.
    EXPECT_NE(cells[0].find("result")->find("cycles")->number,
              cells[1].find("result")->find("cycles")->number);
    EXPECT_EQ(doc.find("rows")->array.size(), 2u);
}

// --- The run plan ----------------------------------------------------------

TEST(RunPlanTest, CommonCellsAreSimulatedOnce)
{
    const Experiment a = smallSweepExperiment();
    const Experiment b = overlappingExperiment();
    const RunCounts counts =
        runExperiments({&a, &b}, smallOpts(), {"", ""}, 0);
    // PVC x Base is declared by both: three distinct cells of four.
    EXPECT_EQ(counts.simulations, 3u);
    EXPECT_EQ(counts.hits, 1u);
    EXPECT_EQ(counts.simulations + counts.hits, 4u);

    const RunCounts solo = runExperiments({&b}, smallOpts(), {""}, 0);
    EXPECT_EQ(solo.simulations, 2u);
    EXPECT_EQ(solo.hits, 0u);
}

TEST(RunPlanTest, JointDocumentsMatchSoloDocuments)
{
    const Experiment a = smallSweepExperiment();
    const Experiment b = overlappingExperiment();
    const Experiment c = reorderedExperiment();
    const std::vector<const Experiment *> all = {&a, &b, &c};
    std::vector<std::string> joint;
    for (const Experiment *e : all)
        joint.push_back(outPath("joint_" + e->name));
    const RunCounts counts = runExperiments(all, smallOpts(), joint, 0);
    EXPECT_EQ(counts.simulations, 3u);
    EXPECT_EQ(counts.hits, 3u);

    for (std::size_t i = 0; i < all.size(); ++i) {
        const std::string solo = outPath("solo_" + all[i]->name);
        runExperiments({all[i]}, smallOpts(), {solo}, 0);
        const std::string doc = slurp(solo);
        ASSERT_FALSE(doc.empty());
        EXPECT_EQ(slurp(joint[i]), doc)
            << all[i]->name << ": the joint run wrote another document";
    }
}

TEST(RunPlanTest, CellsDifferingInAnySimulationInputAreDistinct)
{
    const Cell base{findApp("PVC"), "label", DesignConfig::caba(),
                    smallOpts()};
    Cell relabelled = base;
    relabelled.label = "another label";
    EXPECT_TRUE(sameSimulation(base, base));
    EXPECT_TRUE(sameSimulation(base, relabelled))
        << "a label is not a simulation input";

    // One change per field of the app, the design and the options,
    // nested structs included.
    const std::vector<std::pair<const char *, void (*)(Cell &)>> changes = {
        {"app.name", [](Cell &c) { c.app.name += "x"; }},
        {"app.suite", [](Cell &c) { c.app.suite += "x"; }},
        {"app.memory_bound", [](Cell &c) { c.app.memory_bound ^= true; }},
        {"app.in_fig1", [](Cell &c) { c.app.in_fig1 ^= true; }},
        {"app.in_compression",
         [](Cell &c) { c.app.in_compression ^= true; }},
        {"app.regs_per_thread", [](Cell &c) { ++c.app.regs_per_thread; }},
        {"app.threads_per_block",
         [](Cell &c) { ++c.app.threads_per_block; }},
        {"app.loads", [](Cell &c) { ++c.app.loads; }},
        {"app.stores", [](Cell &c) { ++c.app.stores; }},
        {"app.alu", [](Cell &c) { ++c.app.alu; }},
        {"app.sfu", [](Cell &c) { ++c.app.sfu; }},
        {"app.shmem", [](Cell &c) { ++c.app.shmem; }},
        {"app.pattern",
         [](Cell &c) {
             c.app.pattern = c.app.pattern == AccessPattern::Irregular
                                 ? AccessPattern::Strided
                                 : AccessPattern::Irregular;
         }},
        {"app.stride_bytes", [](Cell &c) { ++c.app.stride_bytes; }},
        {"app.irregular_frac", [](Cell &c) { c.app.irregular_frac += 0.125; }},
        {"app.footprint", [](Cell &c) { ++c.app.footprint; }},
        {"app.iterations", [](Cell &c) { ++c.app.iterations; }},
        {"app.data.primary",
         [](Cell &c) {
             c.app.data.primary = c.app.data.primary == DataProfile::Text
                                      ? DataProfile::Sparse
                                      : DataProfile::Text;
         }},
        {"app.data.secondary",
         [](Cell &c) {
             c.app.data.secondary = c.app.data.secondary == DataProfile::Text
                                        ? DataProfile::Sparse
                                        : DataProfile::Text;
         }},
        {"app.data.secondary_frac",
         [](Cell &c) { c.app.data.secondary_frac += 0.125; }},
        {"app.data.zero_frac", [](Cell &c) { c.app.data.zero_frac += 0.125; }},
        {"app.memo_hit_rate", [](Cell &c) { c.app.memo_hit_rate += 0.125; }},
        {"design.name", [](Cell &c) { c.design.name += "x"; }},
        {"design.algo",
         [](Cell &c) {
             c.design.algo = c.design.algo == Algorithm::Fpc
                                 ? Algorithm::CPack
                                 : Algorithm::Fpc;
         }},
        {"design.decompress",
         [](Cell &c) {
             c.design.decompress = c.design.decompress == DecompressSite::Free
                                       ? DecompressSite::MemCtrl
                                       : DecompressSite::Free;
         }},
        {"design.l1_tag_factor", [](Cell &c) { ++c.design.l1_tag_factor; }},
        {"design.l2_tag_factor", [](Cell &c) { ++c.design.l2_tag_factor; }},
        {"opts.scale", [](Cell &c) { c.opts.scale *= 2.0; }},
        {"opts.bw_scale", [](Cell &c) { c.opts.bw_scale *= 2.0; }},
        {"opts.assist_regs", [](Cell &c) { ++c.opts.assist_regs; }},
        {"opts.verify", [](Cell &c) { c.opts.verify ^= true; }},
        {"opts.extras.memoize",
         [](Cell &c) { c.opts.extras.memoize ^= true; }},
        {"opts.extras.prefetch",
         [](Cell &c) { c.opts.extras.prefetch ^= true; }},
        {"opts.extras.prefetch_lookahead",
         [](Cell &c) { ++c.opts.extras.prefetch_lookahead; }},
        {"opts.extras.profile",
         [](Cell &c) { c.opts.extras.profile ^= true; }},
        {"opts.extras.profile_interval",
         [](Cell &c) { ++c.opts.extras.profile_interval; }},
        {"opts.caba.awt_entries", [](Cell &c) { ++c.opts.caba.awt_entries; }},
        {"opts.caba.awb_low_slots",
         [](Cell &c) { ++c.opts.caba.awb_low_slots; }},
        {"opts.caba.throttle", [](Cell &c) { c.opts.caba.throttle ^= true; }},
        {"opts.caba.throttle_window",
         [](Cell &c) { ++c.opts.caba.throttle_window; }},
        {"opts.caba.throttle_idle_floor",
         [](Cell &c) { c.opts.caba.throttle_idle_floor += 0.125; }},
        {"opts.caba.store_buffer",
         [](Cell &c) { ++c.opts.caba.store_buffer; }},
        {"opts.caba.decompress_high_priority",
         [](Cell &c) { c.opts.caba.decompress_high_priority ^= true; }},
        {"opts.caba.compress_low_priority",
         [](Cell &c) { c.opts.caba.compress_low_priority ^= true; }},
        {"opts.md_cache_kb", [](Cell &c) { ++c.opts.md_cache_kb; }},
        {"opts.max_warps", [](Cell &c) { ++c.opts.max_warps; }},
    };
    for (const auto &[field, change] : changes) {
        Cell other = base;
        change(other);
        EXPECT_FALSE(sameSimulation(base, other)) << field;
        EXPECT_FALSE(sameSimulation(other, base)) << field;
    }
}

TEST(RunPlanTest, SharedCellKeepsEachExperimentsLabelAndPosition)
{
    const Experiment first = smallSweepExperiment();
    const Experiment second = reorderedExperiment();
    const std::string first_path = outPath("first");
    const std::string second_path = outPath("second");
    const RunCounts counts = runExperiments(
        {&first, &second}, smallOpts(), {first_path, second_path}, 0);
    EXPECT_EQ(counts.simulations, 2u);
    EXPECT_EQ(counts.hits, 2u);

    // The second experiment declares the same two simulations in the
    // other order under its own labels; its document keeps both.
    const json::Value a = parsed(first_path);
    const json::Value b = parsed(second_path);
    const std::vector<json::Value> &a_cells = a.find("cells")->array;
    const std::vector<json::Value> &b_cells = b.find("cells")->array;
    ASSERT_EQ(a_cells.size(), 2u);
    ASSERT_EQ(b_cells.size(), 2u);
    EXPECT_EQ(a_cells[0].find("design")->string, "Base");
    EXPECT_EQ(a_cells[1].find("design")->string, "CABA-BDI");
    EXPECT_EQ(b_cells[0].find("design")->string, "caba-first");
    EXPECT_EQ(b_cells[1].find("design")->string, "base-last");
    const auto cycles = [](const json::Value &cell) {
        return cell.find("result")->find("cycles")->number;
    };
    EXPECT_EQ(cycles(b_cells[0]), cycles(a_cells[1]));
    EXPECT_EQ(cycles(b_cells[1]), cycles(a_cells[0]));
    EXPECT_NE(cycles(b_cells[0]), cycles(b_cells[1]));
    // The emitted speedup is Base over CABA-BDI, read by its labels.
    EXPECT_DOUBLE_EQ(b.find("rows")->array[0].find("speedup")->number,
                     cycles(a_cells[0]) / cycles(a_cells[1]));
}

TEST(RunPlanTest, JointRunDocumentsAreByteIdenticalAtOneAndFourJobs)
{
    const Experiment a = smallSweepExperiment();
    const Experiment b = overlappingExperiment();
    const Experiment c = perCellOptionsExperiment();
    const std::vector<const Experiment *> all = {&a, &b, &c};
    std::vector<std::string> serial;
    std::vector<std::string> parallel;
    for (const Experiment *e : all) {
        serial.push_back(outPath("serial_" + e->name));
        parallel.push_back(outPath("parallel_" + e->name));
    }
    runExperiments(all, smallOpts(), serial, 1);
    runExperiments(all, smallOpts(), parallel, 4);
    for (std::size_t i = 0; i < all.size(); ++i) {
        const std::string doc = slurp(serial[i]);
        ASSERT_FALSE(doc.empty());
        EXPECT_EQ(doc, slurp(parallel[i]))
            << all[i]->name << ": worker count leaked into the document";
    }
}

// --- runApp ----------------------------------------------------------------

TEST(RunAppTest, TwoCallsOnOneCellSimulateTwice)
{
    // runApp times every simulation's build and run into the harness
    // stages; a call served from anywhere but a new simulation would
    // leave them unchanged.
    const AppDescriptor app = findApp("PVC");
    const auto run = static_cast<std::size_t>(prof::Stage::Run);
    const auto before = prof::stageSnapshot();
    const RunResult first = runApp(app, DesignConfig::caba(), smallOpts());
    const auto between = prof::stageSnapshot();
    const RunResult second = runApp(app, DesignConfig::caba(), smallOpts());
    const auto after = prof::stageSnapshot();
    EXPECT_GT(between[run], before[run]);
    EXPECT_GT(after[run], between[run]) << "the second call did not simulate";
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.stats.all(), second.stats.all());
}

} // namespace
} // namespace caba

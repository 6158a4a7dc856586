/**
 * @file
 * The benchmark's own tests: the statistics and fidelity arithmetic the
 * report rests on, and the checks that turn a broken output into a
 * failure instead of a number. Build and run:
 *
 *   cmake --build .bench_build --target perfbench_tests
 *   .bench_build/perfbench_tests
 */
#include <gtest/gtest.h>
#include <sched.h>

#include <cmath>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>

#include "perfbench.h"

using namespace perfbench;
using caba::prof::Comp;
using caba::prof::Phase;

namespace {

/** Three cheap CONS cells (a few thousand cycles each at tiny scale). */
std::vector<SimCell>
tinyCells()
{
    const caba::AppDescriptor app = caba::findApp("CONS");
    return {{app, caba::DesignConfig::base(), 1.0, std::nullopt},
            {app, caba::DesignConfig::hwMem(), 1.0, std::nullopt},
            {app, caba::DesignConfig::caba(), 1.0, std::nullopt}};
}

SweepOptions
tinySweep()
{
    SweepOptions opt;
    opt.scale = 0.02;
    opt.seconds = 0.0;
    return opt;
}

} // namespace

TEST(Stats, P90NeedsTenSamplesAboveIt)
{
    std::vector<double> v(99);
    std::iota(v.begin(), v.end(), 1.0);
    EXPECT_FALSE(percentile(v, 0.9).has_value());   // 9.9 expected above
    v.push_back(100.0);
    ASSERT_TRUE(percentile(v, 0.9).has_value());
    // Harrell-Davis on 1..n estimates the q quantile as qn + 1/2.
    EXPECT_NEAR(*percentile(v, 0.9), 90.5, 1e-6);
    EXPECT_NEAR(*percentile(v, 0.5), 50.5, 1e-6);
    EXPECT_DOUBLE_EQ(median(v), 50.5);
    EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(Stats, QuantileMovesLittleWhenNeighboursSwap)
{
    // Two clusters with the median in the gap: one sample crossing over
    // moves the middle order statistic by the whole gap.
    std::vector<double> v;
    for (int i = 0; i < 50; ++i)
        v.push_back(1.0 + 0.01 * i);
    for (int i = 0; i < 50; ++i)
        v.push_back(3.0 + 0.01 * i);
    const double hd_before = *percentile(v, 0.5);
    const double median_before = median(v);
    v[49] = 3.5;
    const double hd_jump = *percentile(v, 0.5) - hd_before;
    const double median_jump = median(v) - median_before;
    EXPECT_GT(hd_jump, 0.0);
    EXPECT_LT(hd_jump, 0.25 * median_jump);
}

TEST(Fidelity, ErrorIsDistanceToThePaperFigure)
{
    // CABA-BDI is 1.5x and 1.2x over Base, HW-BDI-Mem 1.25x and 1.0x.
    const std::vector<CellFigures> cells = {
        {"a", "Base", 300, 0.6, 0.0},   {"a", "CABA-BDI", 200, 0.4, 0.9},
        {"a", "HW-BDI-Mem", 240, 0.5, 0.0}, {"b", "Base", 120, 0.4, 0.0},
        {"b", "CABA-BDI", 100, 0.3, 0.7},   {"b", "HW-BDI-Mem", 120, 0.4, 0.0},
    };
    const std::array<double, 4> sim = fidelity(cells);
    const double caba = std::sqrt(1.5 * 1.2);
    const double hwmem = std::sqrt(1.25 * 1.0);
    EXPECT_NEAR(sim[0], 100.0 * (caba - 1.0), 1e-9);
    EXPECT_NEAR(sim[1], 100.0 * (caba / hwmem - 1.0), 1e-9);
    EXPECT_NEAR(sim[2], 50.0, 1e-9);
    EXPECT_NEAR(sim[3], 80.0, 1e-9);

    EXPECT_NEAR(errPp(39.3, kPaperClaims[0].paper_pct), 2.4, 1e-9);
    EXPECT_NEAR(errPp(-2.3, kPaperClaims[1].paper_pct), 12.2, 1e-9);
    EXPECT_NEAR(errPp(95.8, kPaperClaims[2].paper_pct), 42.2, 1e-9);
    EXPECT_NEAR(errPp(66.1, kPaperClaims[3].paper_pct), 18.9, 1e-9);
}

TEST(Fidelity, PaperConstantsNameTheirFigure)
{
    const double paper[] = {41.7, 9.9, 53.6, 85.0};
    for (std::size_t i = 0; i < kPaperClaims.size(); ++i) {
        EXPECT_EQ(std::string(kPaperClaims[i].figure).rfind("Fig. ", 0), 0u);
        EXPECT_DOUBLE_EQ(kPaperClaims[i].paper_pct, paper[i]);
    }
}

TEST(Stats, CpuPickerProbesEveryCpuThenPinsToOne)
{
    cpu_set_t allowed;
    ASSERT_EQ(sched_getaffinity(0, sizeof allowed, &allowed), 0);
    const int cpus = CPU_COUNT(&allowed);
    int calls = 0;
    CpuPicker picker([&] { ++calls; });
    picker.maybePick();
    picker.maybePick();   // too soon: no second probe round
    cpu_set_t now;
    ASSERT_EQ(sched_getaffinity(0, sizeof now, &now), 0);
    ASSERT_EQ(sched_setaffinity(0, sizeof allowed, &allowed), 0);
    if (cpus < 2) {
        EXPECT_EQ(calls, 0);
        return;
    }
    EXPECT_EQ(picker.picks(), 1);
    EXPECT_EQ(calls, 2 * cpus);
    EXPECT_EQ(CPU_COUNT(&now), 1);
    cpu_set_t both;
    CPU_AND(&both, &now, &allowed);
    EXPECT_EQ(CPU_COUNT(&both), 1);
}

TEST(Prof, UnattributedIsLoopMinusTheOtherBuckets)
{
    std::array<std::int64_t, caba::prof::kBuckets> ns{};
    const auto at = [&](Comp c, Phase p) -> std::int64_t & {
        return ns[static_cast<std::size_t>(static_cast<int>(c) *
                                               caba::prof::kPhases +
                                           static_cast<int>(p))];
    };
    at(Comp::Loop, Phase::Cycle) = 1000;
    at(Comp::Sm, Phase::Cycle) = 300;
    at(Comp::Sm, Phase::CatchUp) = 50;
    at(Comp::XbarReq, Phase::Cycle) = 60;
    at(Comp::Partition, Phase::Cycle) = 250;
    at(Comp::Wire, Phase::Cycle) = 100;
    at(Comp::Loop, Phase::Jump) = 40;
    EXPECT_EQ(unattributedNs(ns), 1000 - 800);
}

TEST(Prof, TracedCellFillsTheBucketsAndKeepsItsResult)
{
    const SimCell cell = tinyCells()[2];
    const CellRun plain = runCell(cell, 0.02, kDefaultSeed, false);
    const CellRun traced = runCell(cell, 0.02, kDefaultSeed, true);
    EXPECT_EQ(digest(plain.result), digest(traced.result));
    const std::int64_t loop = traced.spans.prof_ns[static_cast<std::size_t>(
        static_cast<int>(Comp::Loop) * caba::prof::kPhases)];
    EXPECT_GT(loop, 0);
    EXPECT_GE(unattributedNs(traced.spans.prof_ns), 0);
    EXPECT_LT(unattributedNs(traced.spans.prof_ns), loop);
    for (std::int64_t ns : plain.spans.prof_ns)
        EXPECT_EQ(ns, 0);
}

TEST(Sweep, CellListsMatchTheFigures)
{
    const std::vector<SimCell> fig07 = fig07Cells();
    const std::vector<SimCell> compute = computeCells();
    EXPECT_EQ(fig07.size(), 100u);
    EXPECT_EQ(compute.size(), 27u);
    for (const auto *cells : {&fig07, &compute}) {
        std::set<std::string> labels;
        for (const SimCell &c : *cells)
            EXPECT_TRUE(labels.insert(c.label()).second) << c.label();
    }
    for (const SimCell &c : compute) {
        EXPECT_FALSE(c.app.memory_bound) << c.label();
        EXPECT_NE(c.app.name, "dmr");
    }
}

TEST(Sweep, InjectedFaultCountsExactlyThatCell)
{
    std::vector<SimCell> cells = tinyCells();
    cells[1].fault = caba::AuditFault::DoubleCountBurst;
    const Report rep = runSweep(cells, tinySweep());
    // Every pass re-runs the faulty cell; only it may fail.
    EXPECT_GE(rep.attempted, 100u);
    EXPECT_EQ(rep.failed, rep.attempted / cells.size());
    ASSERT_FALSE(rep.failures.empty());
    for (const std::string &f : rep.failures)
        EXPECT_EQ(f.rfind(cells[1].label() + ":", 0), 0u) << f;
    EXPECT_NE(rep.failures[0].find("audit"), std::string::npos);
}

TEST(Sweep, GoldenPinsInstructionsAlwaysAndTheRestOnRequest)
{
    const std::vector<SimCell> cells = tinyCells();
    SweepOptions opt = tinySweep();
    Golden golden = recordSweep(cells, opt.scale, opt.seed);
    opt.golden = &golden;
    opt.pin_all = true;
    EXPECT_EQ(runSweep(cells, opt).failed, 0u);

    golden[cells[0].label()][0] += 1;   // cycles
    EXPECT_GT(runSweep(cells, opt).failed, 0u);
    opt.pin_all = false;
    EXPECT_EQ(runSweep(cells, opt).failed, 0u);
    golden[cells[0].label()][1] += 1;   // instructions
    const Report rep = runSweep(cells, opt);
    EXPECT_EQ(rep.failed, rep.attempted / cells.size());
}

TEST(Sweep, InstructionsDoNotDependOnTheSeed)
{
    for (const SimCell &cell : tinyCells()) {
        const CellRun a = runCell(cell, 0.02, kDefaultSeed, false);
        const CellRun b = runCell(cell, 0.02, 0x1234, false);
        EXPECT_EQ(a.result.instructions, b.result.instructions);
    }
}

TEST(Codec, RoundTripChecksEveryLineAgainstItsGolden)
{
    const Corpus corpus = makeCorpus(kDefaultSeed, 16);
    EXPECT_EQ(corpus.totalLines(), corpus.apps.size() * 16);
    Golden golden = recordCodec(corpus);
    CodecOptions opt;
    opt.seconds = 0.0;
    opt.golden = &golden;
    const Report ok = runCodec(corpus, opt);
    EXPECT_EQ(ok.failed, 0u);
    EXPECT_GE(ok.attempted, 100u * 16);

    std::uint64_t verbatim = 0;
    for (const auto &[codec, totals] : golden)
        verbatim += totals[2];
    EXPECT_GT(verbatim, 0u) << "the corpus should include incompressible lines";

    golden["fpc"][1] += 1;
    const Report bad = runCodec(corpus, opt);
    EXPECT_EQ(bad.failed, golden["fpc"][0]);
}

TEST(Report, BenchmarkJsonListsEveryPerLayerMetric)
{
    std::ifstream in(PERFBENCH_REPO_ROOT "/BENCHMARK.json");
    ASSERT_TRUE(in.good());
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    for (const MetricDef &m : kLayerMetrics)
        EXPECT_NE(json.find("\"name\": \"" + std::string(m.name) + "\""),
                  std::string::npos)
            << m.name;
}

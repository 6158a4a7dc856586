/**
 * @file
 * Observability-layer tests (DESIGN.md section 11): the caba-prof-v1
 * document schema, the profiler's determinism contract (RunResult
 * bit-identical with CABA_PROF on or off, in both run-loop modes), the
 * exactness of the per-slot cycle taxonomy, and the profiling assist
 * warp's lifecycle.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json_parse.h"
#include "common/prof.h"
#include "gpu/gpu_system.h"
#include "harness/runner.h"
#include "temp_dir.h"

namespace caba {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

AppDescriptor
tinyApp(const char *name = "CONS")
{
    AppDescriptor app = findApp(name);
    app.iterations = 8;
    app.footprint = 2ull << 20;
    return app;
}

RunResult
runSystem(const DesignConfig &design, bool ticked,
          const ExtrasConfig *extras = nullptr, const char *app_name = "CONS")
{
    GpuConfig cfg;
    cfg.ticked = ticked;
    cfg.sample_interval = 512;
    if (extras != nullptr)
        cfg.extras = *extras;
    const AppDescriptor app = tinyApp(app_name);
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
    EXPECT_EQ(a.energy.total, b.energy.total);
    EXPECT_EQ(a.stats.all(), b.stats.all());
    ASSERT_EQ(a.stats.allDists().size(), b.stats.allDists().size());
    for (const auto &[name, dist] : a.stats.allDists()) {
        const Distribution *other = b.stats.findDist(name);
        ASSERT_NE(other, nullptr) << name;
        EXPECT_TRUE(dist == *other) << name;
    }
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        EXPECT_EQ(a.timeline[i].cycle, b.timeline[i].cycle) << i;
        EXPECT_EQ(a.timeline[i].instructions, b.timeline[i].instructions)
            << i;
    }
}

class ProfTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prof::resetForTest();
    }

    void
    TearDown() override
    {
        // Never leak the env knob (or table contents) into other tests.
        ::unsetenv("CABA_PROF");
        prof::resetForTest();
    }
};

TEST_F(ProfTest, SnapshotOrderIsFixed)
{
    const auto buckets = prof::snapshot();
    ASSERT_EQ(static_cast<int>(buckets.size()), prof::kBuckets);
    for (int c = 0; c < prof::kComps; ++c) {
        for (int p = 0; p < prof::kPhases; ++p) {
            const prof::Bucket &b =
                buckets[static_cast<std::size_t>(c * prof::kPhases + p)];
            EXPECT_EQ(static_cast<int>(b.comp), c);
            EXPECT_EQ(static_cast<int>(b.phase), p);
            EXPECT_EQ(b.ns, 0);
            EXPECT_EQ(b.calls, 0u);
        }
    }
}

TEST_F(ProfTest, RecorderFlushMergesIntoGlobalTable)
{
    prof::Recorder r;
    r.add(prof::Comp::Sm, prof::Phase::Cycle, 1000);
    r.add(prof::Comp::Sm, prof::Phase::Cycle, 500);
    r.add(prof::Comp::Loop, prof::Phase::Jump, 42);
    // Nothing global until flush.
    EXPECT_EQ(prof::snapshot()[0].calls, 0u);
    r.flush();
    const auto buckets = prof::snapshot();
    EXPECT_EQ(buckets[0].ns, 1500);
    EXPECT_EQ(buckets[0].calls, 2u);
    const std::size_t loop_jump = static_cast<std::size_t>(
        static_cast<int>(prof::Comp::Loop) * prof::kPhases +
        static_cast<int>(prof::Phase::Jump));
    EXPECT_EQ(buckets[loop_jump].ns, 42);
    EXPECT_EQ(buckets[loop_jump].calls, 1u);
    // flush() zeroes the recorder: a second flush adds nothing.
    r.flush();
    EXPECT_EQ(prof::snapshot()[0].calls, 2u);
}

TEST_F(ProfTest, WriteReportEmitsCabaProfV1Schema)
{
    prof::Recorder r;
    r.add(prof::Comp::Partition, prof::Phase::CatchUp, 7);
    r.flush();
    prof::addStage(prof::Stage::Run, 11);

    const std::string path = test::processTempDir() + "caba_prof_schema.json";
    ASSERT_TRUE(prof::writeReport(path));

    json::Value doc;
    ASSERT_TRUE(json::parse(readFile(path), &doc));
    const json::Value *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string, "caba-prof-v1");

    const json::Value *entries = doc.find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_TRUE(entries->isArray());
    // Every bucket always present, fixed (component, phase) order.
    ASSERT_EQ(entries->array.size(),
              static_cast<std::size_t>(prof::kBuckets));
    for (int i = 0; i < prof::kBuckets; ++i) {
        const json::Value &e =
            entries->array[static_cast<std::size_t>(i)];
        const json::Value *comp = e.find("component");
        const json::Value *phase = e.find("phase");
        ASSERT_NE(comp, nullptr) << i;
        ASSERT_NE(phase, nullptr) << i;
        EXPECT_EQ(comp->string,
                  prof::compName(static_cast<prof::Comp>(i / prof::kPhases)));
        EXPECT_EQ(phase->string, prof::phaseName(static_cast<prof::Phase>(
                                     i % prof::kPhases)));
        ASSERT_NE(e.find("ns"), nullptr) << i;
        ASSERT_NE(e.find("calls"), nullptr) << i;
    }
    const std::size_t part_catch_up = static_cast<std::size_t>(
        static_cast<int>(prof::Comp::Partition) * prof::kPhases +
        static_cast<int>(prof::Phase::CatchUp));
    EXPECT_EQ(entries->array[part_catch_up].find("ns")->number, 7.0);
    EXPECT_EQ(entries->array[part_catch_up].find("calls")->number, 1.0);

    // The harness stages: both always present, in Stage order.
    const json::Value *self = doc.find("self_profile");
    ASSERT_NE(self, nullptr);
    ASSERT_NE(self->find("build"), nullptr);
    ASSERT_NE(self->find("run"), nullptr);
    EXPECT_EQ(self->find("build")->number, 0.0);
    EXPECT_EQ(self->find("run")->number, 11.0);
}

/** reportTopN's rows as {name, share}; the phase joins the name. */
std::vector<std::pair<std::string, std::string>>
topNRows(int n)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    prof::reportTopN(f, n);
    std::rewind(f);
    std::string text;
    char buf[256];
    while (std::fgets(buf, sizeof buf, f) != nullptr)
        text += buf;
    std::fclose(f);

    std::istringstream lines(text);
    std::string line;
    std::getline(lines, line);
    EXPECT_NE(line.find("shares of 1.000s in loop/cycle"), std::string::npos)
        << line;
    std::vector<std::pair<std::string, std::string>> rows;
    while (std::getline(lines, line)) {
        std::istringstream in(line);
        std::vector<std::string> tok;
        for (std::string t; in >> t;)
            tok.push_back(t);
        if (tok.size() >= 3 && tok[0] == "unattributed")
            rows.emplace_back(tok[0], tok[2]);  // no phase, no calls
        else if (tok.size() >= 4)
            rows.emplace_back(tok[0] + "/" + tok[1], tok[3]);
        else
            ADD_FAILURE() << "unparsed row: " << line;
    }
    return rows;
}

TEST_F(ProfTest, TopNSharesAreOfLoopCycleWithUnattributedRow)
{
    // loop/cycle is inclusive: 1 s, of which the component buckets hold
    // 0.85 s. Shares are of the 1 s, loop/cycle is not a row, and the
    // 0.15 s nothing else holds is the unattributed row.
    prof::Recorder r;
    r.add(prof::Comp::Loop, prof::Phase::Cycle, 1'000'000'000);
    r.add(prof::Comp::Sm, prof::Phase::Cycle, 500'000'000);
    r.add(prof::Comp::Partition, prof::Phase::Cycle, 300'000'000);
    r.add(prof::Comp::Loop, prof::Phase::Jump, 50'000'000);
    r.flush();

    const auto rows = topNRows(8);
    const std::vector<std::pair<std::string, std::string>> want = {
        {"sm/cycle", "50.0%"},
        {"partition/cycle", "30.0%"},
        {"unattributed", "15.0%"},
        {"loop/jump", "5.0%"},
    };
    EXPECT_EQ(rows, want);
    EXPECT_EQ(topNRows(2).size(), 2u);
}

TEST_F(ProfTest, ProfiledRunPopulatesBuckets)
{
    const std::string path = test::processTempDir() + "caba_prof_run.json";
    ASSERT_EQ(::setenv("CABA_PROF", path.c_str(), 1), 0);
    runSystem(DesignConfig::caba(), false);
    const auto buckets = prof::snapshot();
    std::uint64_t calls = 0;
    for (const prof::Bucket &b : buckets)
        calls += b.calls;
    EXPECT_GT(calls, 0u) << "profiled run attributed no time";
    // The whole-run loop/cycle bucket is inclusive: it dominates.
    const std::size_t loop_cycle = static_cast<std::size_t>(
        static_cast<int>(prof::Comp::Loop) * prof::kPhases +
        static_cast<int>(prof::Phase::Cycle));
    EXPECT_EQ(buckets[loop_cycle].calls, 1u);
    EXPECT_GT(buckets[loop_cycle].ns, 0);
}

TEST_F(ProfTest, RunResultBitIdenticalProfilerOnOff)
{
    const std::string path = test::processTempDir() + "caba_prof_det.json";
    for (const bool ticked : {false, true}) {
        SCOPED_TRACE(ticked ? "ticked" : "event-driven");
        ::unsetenv("CABA_PROF");
        const RunResult off = runSystem(DesignConfig::caba(), ticked);
        ASSERT_EQ(::setenv("CABA_PROF", path.c_str(), 1), 0);
        const RunResult on = runSystem(DesignConfig::caba(), ticked);
        ::unsetenv("CABA_PROF");
        expectIdentical(off, on);
    }
}

/** Calls recorded so far in global bucket (@p c, @p p). */
std::uint64_t
callsOf(prof::Comp c, prof::Phase p)
{
    return prof::snapshot()[static_cast<std::size_t>(
                                static_cast<int>(c) * prof::kPhases +
                                static_cast<int>(p))]
        .calls;
}

/** Catch-up calls summed over every component class. */
std::uint64_t
catchUpCalls()
{
    std::uint64_t n = 0;
    for (int c = 0; c < prof::kComps; ++c)
        n += callsOf(static_cast<prof::Comp>(c), prof::Phase::CatchUp);
    return n;
}

TEST_F(ProfTest, TickedOracleCyclesEveryComponentEveryClock)
{
    // A ticked mode that still slept would make every event-driven vs
    // ticked determinism diff pass vacuously: count the cycle() calls.
    const std::string path = test::processTempDir() + "caba_prof_ticked.json";
    ASSERT_EQ(::setenv("CABA_PROF", path.c_str(), 1), 0);
    const GpuConfig ref;
    const std::uint64_t sms = static_cast<std::uint64_t>(ref.num_sms);
    const std::uint64_t parts =
        static_cast<std::uint64_t>(ref.num_partitions);

    const RunResult ticked = runSystem(DesignConfig::caba(), true);
    const std::uint64_t ticked_sm_calls =
        callsOf(prof::Comp::Sm, prof::Phase::Cycle);
    EXPECT_EQ(ticked_sm_calls, sms * ticked.cycles);
    EXPECT_EQ(callsOf(prof::Comp::XbarReq, prof::Phase::Cycle),
              ticked.cycles);
    EXPECT_EQ(callsOf(prof::Comp::XbarReply, prof::Phase::Cycle),
              ticked.cycles);
    EXPECT_EQ(callsOf(prof::Comp::Partition, prof::Phase::Cycle),
              parts * ticked.cycles);
    EXPECT_EQ(catchUpCalls(), 0u);
    EXPECT_EQ(callsOf(prof::Comp::Loop, prof::Phase::Jump), 0u);

    // The default schedule sleeps: fewer SM cycles, charged on wake.
    prof::resetForTest();
    const RunResult event = runSystem(DesignConfig::caba(), false);
    EXPECT_EQ(event.cycles, ticked.cycles);
    EXPECT_LT(callsOf(prof::Comp::Sm, prof::Phase::Cycle), ticked_sm_calls);
    EXPECT_GT(catchUpCalls(), 0u);
    // Both schedules step the clock one cycle at a time.
    EXPECT_EQ(callsOf(prof::Comp::Loop, prof::Phase::Jump), 0u);
}

TEST_F(ProfTest, DefaultScheduleCyclesCrossbarsAndPartitionsEveryClock)
{
    // Only SMs sleep: in the default schedule both crossbars and every
    // partition cycle on every clock, and only the SMs are caught up.
    const std::string path = test::processTempDir() + "caba_prof_event.json";
    ASSERT_EQ(::setenv("CABA_PROF", path.c_str(), 1), 0);
    const GpuConfig ref;
    const std::uint64_t parts =
        static_cast<std::uint64_t>(ref.num_partitions);

    const RunResult r = runSystem(DesignConfig::caba(), false);
    ASSERT_GT(r.cycles, 0u);
    EXPECT_EQ(callsOf(prof::Comp::XbarReq, prof::Phase::Cycle), r.cycles);
    EXPECT_EQ(callsOf(prof::Comp::XbarReply, prof::Phase::Cycle), r.cycles);
    EXPECT_EQ(callsOf(prof::Comp::Partition, prof::Phase::Cycle),
              parts * r.cycles);
    for (int c = 0; c < prof::kComps; ++c) {
        const auto comp = static_cast<prof::Comp>(c);
        if (comp != prof::Comp::Sm) {
            EXPECT_EQ(callsOf(comp, prof::Phase::CatchUp), 0u)
                << prof::compName(comp);
        }
    }
    // The SMs still sleep, so the check above is not vacuous.
    EXPECT_GT(callsOf(prof::Comp::Sm, prof::Phase::CatchUp), 0u);
}

// ---------------------------------------------------------- taxonomy

std::uint64_t
slotSum(const RunResult &r)
{
    std::uint64_t sum = 0;
    for (int c = 0; c < kNumSlotCategories; ++c)
        sum += r.stats.get(std::string("sm_") +
                           kSlotCategoryNames[static_cast<std::size_t>(c)]);
    return sum;
}

TEST(Taxonomy, SlotCategoriesSumToCyclesTimesSlots)
{
    // The audit layer proves the identity per SM at drain; this checks
    // the exported aggregate on runs with very different stall mixes.
    struct Case { const char *app; DesignConfig design; };
    const Case cases[] = {
        {"CONS", DesignConfig::base()},
        {"CONS", DesignConfig::caba()},
        {"JPEG", DesignConfig::caba()},
        {"TRA", DesignConfig::hw()},
    };
    GpuConfig ref;
    const std::uint64_t slots =
        static_cast<std::uint64_t>(ref.sm.schedulers);
    for (const Case &c : cases) {
        SCOPED_TRACE(c.app);
        const RunResult r = runSystem(c.design, false, nullptr, c.app);
        const std::uint64_t accounted =
            r.stats.get("sm_slot_cycles_accounted");
        EXPECT_GT(accounted, 0u);
        EXPECT_EQ(slotSum(r), accounted * slots);
        // The reserved barrier category must stay zero (no barrier ops
        // in this ISA) and the AW ledger must match the AW slot count.
        EXPECT_EQ(r.stats.get("sm_slot_sync"), 0u);
        EXPECT_EQ(r.stats.get("sm_aw_slots_decompress_fill") +
                      r.stats.get("sm_aw_slots_decompress_hit") +
                      r.stats.get("sm_aw_slots_compress") +
                      r.stats.get("sm_aw_slots_memoize") +
                      r.stats.get("sm_aw_slots_prefetch") +
                      r.stats.get("sm_aw_slots_profile"),
                  r.stats.get("sm_slot_aw_issued"));
    }
}

TEST(Taxonomy, EveryIssuedInstructionOccupiesOneSlot)
{
    const RunResult r = runSystem(DesignConfig::caba(), false);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_EQ(r.stats.get("sm_slot_issued"), r.instructions);
}

// ------------------------------------------------- profiling assist warp

TEST(ProfileAw, LifecycleSpawnsSamplesAndStats)
{
    ExtrasConfig extras;
    extras.profile = true;
    extras.profile_interval = 64;
    const RunResult r =
        runSystem(DesignConfig::caba(), false, &extras);

    const std::uint64_t warps = r.stats.get("sm_profile_warps");
    const std::uint64_t samples = r.stats.get("sm_profile_samples");
    EXPECT_GT(warps, 0u) << "no profiling assist warps spawned";
    EXPECT_GT(samples, 0u) << "no profiling warp completed";
    EXPECT_LE(samples, warps);
    EXPECT_GT(r.stats.get("sm_aw_slots_profile"), 0u)
        << "profiling warps issued no instructions";

    // One stall-vector sample per reaped warp, in every distribution.
    const Distribution *ready =
        r.stats.findDist("sm_aw_profile_ready_warps");
    const Distribution *blocked =
        r.stats.findDist("sm_aw_profile_blocked_warps");
    const Distribution *mem =
        r.stats.findDist("sm_aw_profile_mem_blocked_warps");
    ASSERT_NE(ready, nullptr);
    ASSERT_NE(blocked, nullptr);
    ASSERT_NE(mem, nullptr);
    EXPECT_EQ(ready->count(), samples);
    EXPECT_EQ(blocked->count(), samples);
    EXPECT_EQ(mem->count(), samples);
    // A mem-blocked warp is a blocked warp; the sample maxima nest.
    EXPECT_LE(mem->max(), blocked->max());
}

TEST(ProfileAw, DeterministicAcrossRunLoopModes)
{
    ExtrasConfig extras;
    extras.profile = true;
    extras.profile_interval = 128;
    const RunResult event = runSystem(DesignConfig::caba(), false, &extras);
    const RunResult ticked = runSystem(DesignConfig::caba(), true, &extras);
    const RunResult again = runSystem(DesignConfig::caba(), false, &extras);
    expectIdentical(event, ticked);
    expectIdentical(event, again);
}

TEST(ProfileAw, OffByDefault)
{
    const RunResult r = runSystem(DesignConfig::caba(), false);
    EXPECT_EQ(r.stats.get("sm_profile_warps"), 0u);
    EXPECT_EQ(r.stats.get("sm_profile_samples"), 0u);
    EXPECT_EQ(r.stats.get("sm_aw_slots_profile"), 0u);
}

} // namespace
} // namespace caba

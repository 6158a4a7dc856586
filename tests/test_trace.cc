/**
 * @file
 * Event-tracing tests: a traced CABA-BDI run must produce a valid
 * Chrome trace-event JSON file containing warp, assist-warp, cache and
 * dram events with sane timestamps — and tracing must be invisible to
 * the simulation itself (bit-identical cycle counts on or off).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_parse.h"
#include "common/trace.h"
#include "compress/design.h"
#include "gpu/gpu_system.h"
#include "harness/runner.h"
#include "workloads/app.h"
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

ExperimentOptions
smallOpts()
{
    ExperimentOptions opts;
    opts.scale = 0.1; // a short run still spawns hundreds of events
    return opts;
}

class TraceTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        // Never leak an active session into other tests.
        if (trace::active())
            trace::stop();
    }
};

TEST_F(TraceTest, MaskFromNames)
{
    EXPECT_EQ(trace::maskFromNames("warp"), trace::kWarp);
    EXPECT_EQ(trace::maskFromNames("warp,dram"),
              trace::kWarp | trace::kDram);
    EXPECT_EQ(trace::maskFromNames("assist, cache"),
              trace::kAssistWarp | trace::kCache);
    EXPECT_EQ(trace::maskFromNames("assist-warp"), trace::kAssistWarp);
    EXPECT_EQ(trace::maskFromNames("slots"), trace::kSlots);
    EXPECT_EQ(trace::maskFromNames("counter"), trace::kCounter);
    EXPECT_EQ(trace::maskFromNames("counters"), trace::kCounter);
    EXPECT_EQ(trace::maskFromNames("slots,counter"),
              trace::kSlots | trace::kCounter);
    EXPECT_EQ(trace::maskFromNames("all"), trace::kAll);
    EXPECT_DEATH(trace::maskFromNames("xbar,bogus"),
                 "CABA_TRACE_CATEGORIES='xbar,bogus'.*'bogus'");
    EXPECT_EQ(trace::maskFromNames(""), 0u);
}

TEST_F(TraceTest, DisabledByDefault)
{
    EXPECT_FALSE(trace::active());
    EXPECT_FALSE(trace::on(trace::kWarp));
    // Emission without a session is a silent no-op, not a crash.
    trace::instant(trace::kWarp, trace::kPidSm, 0, "noop", 0);
    trace::complete(trace::kDram, trace::kPidDram, 0, "noop", 0, 1);
}

TEST_F(TraceTest, CategoryMaskGatesOn)
{
    const std::string path = test::processTempDir() + "caba_mask_trace.json";
    trace::start(path, trace::kWarp | trace::kDram);
    EXPECT_TRUE(trace::active());
    EXPECT_TRUE(trace::on(trace::kWarp));
    EXPECT_TRUE(trace::on(trace::kDram));
    EXPECT_FALSE(trace::on(trace::kCache));
    EXPECT_FALSE(trace::on(trace::kXbar));
    trace::stop();
    EXPECT_FALSE(trace::active());
}

TEST_F(TraceTest, EmptySessionWritesValidJson)
{
    const std::string path = test::processTempDir() + "caba_empty_trace.json";
    trace::start(path);
    trace::stop();

    json::Value doc;
    ASSERT_TRUE(json::parse(readFile(path), &doc));
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    // Only metadata (process names + the closing placeholder).
    for (const json::Value &ev : events->array)
        EXPECT_EQ(ev.find("ph")->string, "M");
}

TEST_F(TraceTest, TracedRunProducesAllCategories)
{
    const std::string path = test::processTempDir() + "caba_run_trace.json";
    trace::start(path);
    runApp(findApp("PVC"), DesignConfig::caba(), smallOpts());
    trace::stop();

    json::Value doc;
    ASSERT_TRUE(json::parse(readFile(path), &doc));
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::set<std::string> cats;
    double last_ts = 0.0;
    std::size_t timed = 0;
    for (const json::Value &ev : events->array) {
        const json::Value *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->string == "M")
            continue; // metadata has no timestamp
        const json::Value *cat = ev.find("cat");
        const json::Value *ts = ev.find("ts");
        ASSERT_NE(cat, nullptr);
        ASSERT_NE(ts, nullptr);
        cats.insert(cat->string);
        // stop() writes events sorted by timestamp.
        EXPECT_GE(ts->number, last_ts);
        last_ts = ts->number;
        if (ph->string == "X") {
            EXPECT_GE(ev.find("dur")->number, 1.0);
        }
        ++timed;
    }
    EXPECT_GT(timed, 100u) << "a real run should emit plenty of events";
    EXPECT_TRUE(cats.count("warp")) << "warp launch/retire events missing";
    EXPECT_TRUE(cats.count("slots")) << "issue-slot stall spans missing";
    EXPECT_TRUE(cats.count("assist")) << "assist-warp events missing";
    EXPECT_TRUE(cats.count("cache")) << "cache events missing";
    EXPECT_TRUE(cats.count("dram")) << "dram burst events missing";
}

TEST_F(TraceTest, SlotSpansCoverTheTaxonomy)
{
    const std::string path = test::processTempDir() + "caba_slots_trace.json";
    trace::start(path, trace::kSlots);
    runApp(findApp("PVC"), DesignConfig::caba(), smallOpts());
    trace::stop();

    json::Value doc;
    ASSERT_TRUE(json::parse(readFile(path), &doc));
    std::set<std::string> names;
    std::size_t spans = 0;
    for (const json::Value &ev : doc.find("traceEvents")->array) {
        if (ev.find("ph")->string != "X")
            continue;
        EXPECT_EQ(ev.find("cat")->string, "slots");
        EXPECT_EQ(ev.find("pid")->number,
                  static_cast<double>(trace::kPidSlots));
        names.insert(ev.find("name")->string);
        ++spans;
    }
    EXPECT_GT(spans, 0u) << "no slot-category spans recorded";
    // Span names are the taxonomy's stable category names.
    for (const std::string &n : names)
        EXPECT_EQ(n.rfind("slot_", 0), 0u) << n;
    EXPECT_TRUE(names.count("slot_issued"));
}

TEST_F(TraceTest, CounterTracksEmitOnTimelineCadence)
{
    const std::string path =
        test::processTempDir() + "caba_counter_trace.json";
    trace::start(path, trace::kCounter);
    runApp(findApp("PVC"), DesignConfig::caba(), smallOpts());
    trace::stop();

    json::Value doc;
    ASSERT_TRUE(json::parse(readFile(path), &doc));
    std::set<std::string> names;
    for (const json::Value &ev : doc.find("traceEvents")->array) {
        if (ev.find("ph")->string != "C")
            continue;
        EXPECT_EQ(ev.find("cat")->string, "counter");
        EXPECT_EQ(ev.find("pid")->number,
                  static_cast<double>(trace::kPidCounter));
        const json::Value *args = ev.find("args");
        ASSERT_NE(args, nullptr);
        ASSERT_NE(args->find("value"), nullptr);
        names.insert(ev.find("name")->string);
    }
    EXPECT_TRUE(names.count("scheduled_sms"));
    EXPECT_TRUE(names.count("issuable_warps"));
    EXPECT_TRUE(names.count("dram_read_queue"));
}

/** The scheduled_sms values a traced GpuSystem run emits. */
std::vector<double>
scheduledSms(bool ticked, const std::string &path)
{
    GpuConfig cfg;
    cfg.ticked = ticked;
    cfg.sample_interval = 256;
    AppDescriptor app = findApp("CONS");
    app.iterations = 8;
    app.footprint = 2ull << 20;
    Workload wl(app);
    wl.bindGrid(12 * cfg.num_sms);
    trace::start(path, trace::kCounter);
    {
        GpuSystem gpu(cfg, DesignConfig::caba(), wl.lineGenerator());
        gpu.launch(&wl, 12);
        gpu.run();
    }
    trace::stop();

    json::Value doc;
    EXPECT_TRUE(json::parse(readFile(path), &doc));
    std::vector<double> counts;
    for (const json::Value &ev : doc.find("traceEvents")->array) {
        if (ev.find("ph")->string == "C" &&
            ev.find("name")->string == "scheduled_sms")
            counts.push_back(ev.find("args")->find("value")->number);
    }
    return counts;
}

TEST_F(TraceTest, ScheduledSmsCountsSmsWithAWakeTime)
{
    // The counter counts the SMs holding a wake time, the only
    // components that sleep. The ticked oracle reschedules every SM
    // every cycle; the event-driven schedule parks the ones with no
    // work in sight.
    const GpuConfig ref;
    const double sms = ref.num_sms;
    const std::string path =
        test::processTempDir() + "caba_depth_trace.json";
    const std::vector<double> ticked = scheduledSms(true, path);
    ASSERT_FALSE(ticked.empty());
    for (const double n : ticked)
        EXPECT_EQ(n, sms);
    const std::vector<double> event = scheduledSms(false, path);
    ASSERT_EQ(event.size(), ticked.size());
    double fewest = sms;
    for (const double n : event) {
        EXPECT_LE(n, sms);
        fewest = std::min(fewest, n);
    }
    EXPECT_LT(fewest, sms);
}

TEST_F(TraceTest, CategoryFilterDropsOtherCategories)
{
    const std::string path = test::processTempDir() + "caba_filter_trace.json";
    trace::start(path, trace::kDram);
    runApp(findApp("PVC"), DesignConfig::caba(), smallOpts());
    trace::stop();

    json::Value doc;
    ASSERT_TRUE(json::parse(readFile(path), &doc));
    std::size_t dram = 0;
    for (const json::Value &ev : doc.find("traceEvents")->array) {
        if (ev.find("ph")->string == "M")
            continue;
        EXPECT_EQ(ev.find("cat")->string, "dram");
        ++dram;
    }
    EXPECT_GT(dram, 0u);
}

TEST_F(TraceTest, TracingDoesNotPerturbSimulation)
{
    const ExperimentOptions opts = smallOpts();
    const RunResult plain = runApp(findApp("PVC"), DesignConfig::caba(),
                                   opts);

    const std::string path =
        test::processTempDir() + "caba_perturb_trace.json";
    trace::start(path);
    const RunResult traced = runApp(findApp("PVC"), DesignConfig::caba(),
                                    opts);
    trace::stop();

    EXPECT_EQ(plain.cycles, traced.cycles);
    EXPECT_EQ(plain.instructions, traced.instructions);
    EXPECT_EQ(plain.stats.all(), traced.stats.all());
}

} // namespace
} // namespace caba

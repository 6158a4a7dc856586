/**
 * @file
 * Machine-readable export tests: the JsonWriter building blocks, the
 * strict parser that reads them back (common/json_parse.h), the
 * --json flag parsing, the caba-bench-v1 document schema (golden
 * structure a downstream plotting script can rely on), and the
 * determinism promise — a parallel sweep writes a byte-identical file
 * to a serial one.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/json_parse.h"
#include "compress/design.h"
#include "harness/json_export.h"
#include "harness/sweep.h"
#include "workloads/app.h"

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

TEST(JsonWriterTest, NestingAndSeparators)
{
    JsonWriter w;
    w.beginObject()
        .kv("a", std::uint64_t{1})
        .key("b")
        .beginArray()
        .value(2)
        .value(3)
        .endArray()
        .kv("c", true)
        .endObject();
    EXPECT_EQ(w.str(), "{\"a\":1,\"b\":[2,3],\"c\":true}");
}

TEST(JsonWriterTest, EscapesStrings)
{
    JsonWriter w;
    w.beginObject().kv("k", std::string("a\"b\\c\nd\x01")).endObject();
    EXPECT_EQ(w.str(), "{\"k\":\"a\\\"b\\\\c\\nd\\u0001\"}");
}

TEST(JsonWriterTest, DoublesRoundTripAndStayFinite)
{
    JsonWriter w;
    w.beginArray()
        .value(0.1)
        .value(1.0 / 0.0)
        .value(0.0 / 0.0)
        .endArray();
    json::Value v;
    ASSERT_TRUE(json::parse(w.str(), &v));
    ASSERT_EQ(v.array.size(), 3u);
    EXPECT_EQ(v.array[0].number, 0.1); // %.17g round-trips exactly
    EXPECT_TRUE(v.array[1].isNull()); // inf clamps to null
    EXPECT_TRUE(v.array[2].isNull()); // nan clamps to null
}

TEST(JsonParse, WriterDocumentRoundTrips)
{
    JsonWriter w;
    w.beginObject()
        .kv("s", std::string("a\"b\\c\nd\x01"))
        .kv("i", std::int64_t{-42})
        .kv("u", std::uint64_t{1234567890123})
        .kv("d", 0.1)
        .kv("t", true)
        .kv("f", false)
        .kv("n", 0.0 / 0.0)
        .key("a")
        .beginArray()
        .value(1)
        .beginObject()
        .endObject()
        .beginArray()
        .endArray()
        .endArray()
        .endObject();
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(w.str(), &v, &error)) << error;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("s")->string, "a\"b\\c\nd\x01");
    EXPECT_EQ(v.find("i")->number, -42.0);
    EXPECT_EQ(v.find("u")->number, 1234567890123.0);
    EXPECT_EQ(v.find("d")->number, 0.1);
    EXPECT_TRUE(v.find("t")->isBool() && v.find("t")->boolean);
    EXPECT_TRUE(v.find("f")->isBool() && !v.find("f")->boolean);
    EXPECT_TRUE(v.find("n")->isNull());
    EXPECT_EQ(v.find("missing"), nullptr);
    const json::Value *a = v.find("a");
    ASSERT_TRUE(a != nullptr && a->isArray());
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_EQ(a->array[0].number, 1.0);
    EXPECT_TRUE(a->array[1].isObject() && a->array[1].object.empty());
    EXPECT_TRUE(a->array[2].isArray() && a->array[2].array.empty());
}

TEST(JsonParse, MalformedDocumentsFailWithAReason)
{
    const struct
    {
        const char *text;
        const char *reason;
    } cases[] = {
        {"{\"a\":1} x", "trailing garbage"},
        {"{\"a\":[1}", "expected ',' or ']'"},
        {"[[1]", "expected ',' or ']'"},
        {"\"a\\qb\"", "bad escape"},
        {"[tru]", "bad literal"},
        {"{\"a\":1,\"a\":2}", "duplicate object key \"a\""},
    };
    for (const auto &c : cases) {
        json::Value v;
        std::string error;
        EXPECT_FALSE(json::parse(c.text, &v, &error)) << c.text;
        EXPECT_NE(error.find(c.reason), std::string::npos)
            << c.text << " -> " << error;
    }
}

TEST(JsonOutPathTest, FlagForms)
{
    auto path = [](std::vector<const char *> argv) {
        argv.insert(argv.begin(), "bench");
        return jsonOutPath("mybench", static_cast<int>(argv.size()),
                           const_cast<char **>(argv.data()));
    };
    EXPECT_EQ(path({}), "");
    EXPECT_EQ(path({"--other"}), "");
    EXPECT_EQ(path({"--json"}), "bench_results/mybench.json");
    EXPECT_EQ(path({"--json=custom/a.json"}), "custom/a.json");
    // Regression: bare --json must never eat the following token as a
    // path — neither a flag nor a bare word (an experiment name).
    EXPECT_EQ(path({"--json", "--verbose"}), "bench_results/mybench.json");
    EXPECT_EQ(path({"--json", "fig07"}), "bench_results/mybench.json");
}

TEST(BenchJsonTest, DisabledIsNoOp)
{
    BenchJson json("b", "");
    EXPECT_FALSE(json.enabled());
    json.beginRow();
    json.field("k", 1);
    json.endRow();
    json.write(); // must not create any file or crash
}

TEST(BenchJsonTest, RowsOnlyDocument)
{
    const std::string path = testing::TempDir() + "caba_rows.json";
    BenchJson json("rows_bench", path);
    json.beginRow();
    json.field("app", std::string("MM"));
    json.field("frac", 0.25);
    json.field("warps", 48);
    json.endRow();
    json.write();

    json::Value doc;
    ASSERT_TRUE(json::parse(readFile(path), &doc));
    EXPECT_EQ(doc.find("schema")->string, "caba-bench-v1");
    EXPECT_EQ(doc.find("bench")->string, "rows_bench");
    EXPECT_TRUE(doc.find("cells")->array.empty());
    ASSERT_EQ(doc.find("rows")->array.size(), 1u);
    const json::Value &row = doc.find("rows")->array[0];
    EXPECT_EQ(row.find("app")->string, "MM");
    EXPECT_EQ(row.find("frac")->number, 0.25);
    EXPECT_EQ(row.find("warps")->number, 48.0);
    std::remove(path.c_str());
}

/** The golden schema: every key a plotting script may depend on. */
TEST(BenchJsonTest, CellSchemaIsStable)
{
    ExperimentOptions opts;
    opts.scale = 0.1;
    const RunResult r = runApp(findApp("PVC"), DesignConfig::caba(), opts);

    const std::string path = testing::TempDir() + "caba_cell.json";
    BenchJson json("schema_bench", path);
    json.addCell("PVC", "CABA-BDI", r);
    json.write();

    json::Value doc;
    ASSERT_TRUE(json::parse(readFile(path), &doc));
    EXPECT_EQ(doc.find("schema")->string, "caba-bench-v1");
    ASSERT_EQ(doc.find("cells")->array.size(), 1u);

    const json::Value &cell = doc.find("cells")->array[0];
    EXPECT_EQ(cell.find("app")->string, "PVC");
    EXPECT_EQ(cell.find("design")->string, "CABA-BDI");
    const json::Value *res = cell.find("result");
    ASSERT_NE(res, nullptr);
    for (const char *k : {"cycles", "instructions", "ipc",
                          "bw_utilization", "compression_ratio",
                          "md_hit_rate"})
        EXPECT_TRUE(res->find(k) != nullptr && res->find(k)->isNumber())
            << "missing scalar " << k;
    // The Figure 1 account travels as sm_slot_* stats, not as an
    // object of its own.
    EXPECT_EQ(res->find("breakdown"), nullptr);
    for (const char *k : {"core", "l1", "l2", "xbar", "dram",
                          "compression", "static", "total"})
        EXPECT_NE(res->find("energy")->find(k), nullptr)
            << "missing energy." << k;

    EXPECT_EQ(static_cast<std::uint64_t>(res->find("cycles")->number),
              r.cycles);

    // Stats/gauges partition: every counter in one object, every gauge
    // in the other, values matching the in-memory StatSet.
    const json::Value *stats = res->find("stats");
    const json::Value *gauges = res->find("gauges");
    ASSERT_NE(stats, nullptr);
    ASSERT_NE(gauges, nullptr);
    for (const auto &[k, v] : r.stats.all()) {
        const json::Value *home =
            r.stats.isGauge(k) ? gauges->find(k) : stats->find(k);
        ASSERT_NE(home, nullptr) << k;
        EXPECT_EQ(static_cast<std::uint64_t>(home->number), v) << k;
    }
    EXPECT_NE(gauges->find("awc_awt_capacity"), nullptr);

    // Distributions: objects with count/sum/min/max/mean/buckets, and
    // the assist-warp latency histogram must exist on a CABA run.
    const json::Value *dists = res->find("distributions");
    ASSERT_NE(dists, nullptr);
    const json::Value *lat = dists->find("awc_latency");
    ASSERT_NE(lat, nullptr) << "assist-warp latency histogram missing";
    EXPECT_GT(lat->find("count")->number, 0.0);
    ASSERT_TRUE(lat->find("buckets")->isArray());
    double bucket_total = 0.0;
    for (const json::Value &b : lat->find("buckets")->array) {
        ASSERT_EQ(b.array.size(), 2u); // [bucket_low, count] pairs
        bucket_total += b.array[1].number;
    }
    EXPECT_EQ(bucket_total, lat->find("count")->number);

    // Timeline: [cycle, instructions, dram_bursts] triples ending at
    // the final cycle, cumulative and non-decreasing.
    const json::Value *timeline = res->find("timeline");
    ASSERT_NE(timeline, nullptr);
    ASSERT_FALSE(timeline->array.empty());
    double prev_c = 0, prev_i = 0;
    for (const json::Value &s : timeline->array) {
        ASSERT_EQ(s.array.size(), 3u);
        EXPECT_GE(s.array[0].number, prev_c);
        EXPECT_GE(s.array[1].number, prev_i);
        prev_c = s.array[0].number;
        prev_i = s.array[1].number;
    }
    EXPECT_EQ(static_cast<std::uint64_t>(
                  timeline->array.back().array[0].number),
              r.cycles);
    std::remove(path.c_str());
}

TEST(BenchJsonTest, ParallelSweepWritesByteIdenticalJson)
{
    const std::vector<AppDescriptor> apps = {findApp("PVC"),
                                             findApp("bfs")};
    const std::vector<DesignConfig> designs = {DesignConfig::base(),
                                               DesignConfig::caba()};
    ExperimentOptions opts;
    opts.scale = 0.1;

    auto writeSweep = [&](int jobs, const std::string &path) {
        ExperimentOptions o = opts;
        o.jobs = jobs;
        const Sweep sweep(apps, designs, o);
        BenchJson json("determinism", path);
        json.addSweep(sweep);
        json.write();
    };

    const std::string serial = testing::TempDir() + "caba_serial.json";
    const std::string parallel = testing::TempDir() + "caba_parallel.json";
    writeSweep(1, serial);
    writeSweep(8, parallel);

    const std::string a = readFile(serial);
    const std::string b = readFile(parallel);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "worker count leaked into the JSON export";

    json::Value doc;
    ASSERT_TRUE(json::parse(a, &doc));
    EXPECT_EQ(doc.find("cells")->array.size(),
              apps.size() * designs.size());
    std::remove(serial.c_str());
    std::remove(parallel.c_str());
}

} // namespace
} // namespace caba

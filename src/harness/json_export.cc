#include "harness/json_export.h"

#include <cstdio>
#include <cstdlib>

#include "common/log.h"
#include "common/output_file.h"

namespace caba {

namespace {

void
writeDistribution(JsonWriter &w, const Distribution &d)
{
    w.beginObject()
        .kv("count", d.count())
        .kv("sum", d.sum())
        .kv("min", d.min())
        .kv("max", d.max())
        .kv("mean", d.mean());
    w.key("buckets").beginArray();
    // Only non-empty buckets, as [bucket_low, count] pairs.
    for (int b = 0; b < Distribution::kBuckets; ++b) {
        const std::uint64_t count =
            d.buckets()[static_cast<std::size_t>(b)];
        if (count == 0)
            continue;
        w.beginArray()
            .value(Distribution::bucketLow(b))
            .value(count)
            .endArray();
    }
    w.endArray().endObject();
}

} // namespace

void
writeRunResultJson(JsonWriter &w, const RunResult &r)
{
    w.beginObject()
        .kv("cycles", static_cast<std::uint64_t>(r.cycles))
        .kv("instructions", r.instructions)
        .kv("ipc", r.ipc)
        .kv("bw_utilization", r.bw_utilization)
        .kv("compression_ratio", r.compression_ratio)
        .kv("md_hit_rate", r.md_hit_rate);
    w.key("energy")
        .beginObject()
        .kv("core", r.energy.core)
        .kv("l1", r.energy.l1)
        .kv("l2", r.energy.l2)
        .kv("xbar", r.energy.xbar)
        .kv("dram", r.energy.dram)
        .kv("compression", r.energy.compression)
        .kv("static", r.energy.static_energy)
        .kv("total", r.energy.total)
        .endObject();
    // Counters and gauges separately so consumers can aggregate
    // correctly (counters sum across runs, gauges do not).
    w.key("stats").beginObject();
    for (const auto &[k, v] : r.stats.all()) {
        if (!r.stats.isGauge(k))
            w.kv(k, v);
    }
    w.endObject();
    w.key("gauges").beginObject();
    for (const auto &[k, v] : r.stats.all()) {
        if (r.stats.isGauge(k))
            w.kv(k, v);
    }
    w.endObject();
    w.key("distributions").beginObject();
    for (const auto &[k, d] : r.stats.allDists()) {
        w.key(k);
        writeDistribution(w, d);
    }
    w.endObject();
    w.key("timeline").beginArray();
    for (const TimeSample &t : r.timeline) {
        w.beginArray()
            .value(static_cast<std::uint64_t>(t.cycle))
            .value(t.instructions)
            .value(t.dram_bursts)
            .endArray();
    }
    w.endArray();
    w.endObject();
}

BenchJson::BenchJson(std::string bench, std::string path)
    : bench_(std::move(bench)), path_(std::move(path))
{
}

void
BenchJson::addSweep(const Sweep &sweep)
{
    if (!enabled())
        return;
    for (const Sweep::NamedCell &c : sweep.cells()) {
        JsonWriter w;
        w.beginObject().kv("app", c.app).kv("design", c.design);
        w.key("result");
        writeRunResultJson(w, c.result);
        w.endObject();
        cells_.push_back(w.str());
    }
}

void
BenchJson::beginRow()
{
    if (!enabled())
        return;
    CABA_CHECK(!row_, "beginRow with a row already open");
    row_ = std::make_unique<JsonWriter>();
    row_->beginObject();
}

void
BenchJson::field(const std::string &key, const std::string &value)
{
    if (row_)
        row_->kv(key, value);
}

void
BenchJson::field(const std::string &key, const char *value)
{
    if (row_)
        row_->kv(key, value);
}

void
BenchJson::field(const std::string &key, double value)
{
    if (row_)
        row_->kv(key, value);
}

void
BenchJson::field(const std::string &key, std::uint64_t value)
{
    if (row_)
        row_->kv(key, value);
}

void
BenchJson::field(const std::string &key, int value)
{
    if (row_)
        row_->kv(key, value);
}

void
BenchJson::endRow()
{
    if (!enabled())
        return;
    CABA_CHECK(row_ != nullptr, "endRow without beginRow");
    row_->endObject();
    rows_.push_back(row_->str());
    row_.reset();
}

std::string
BenchJson::document() const
{
    CABA_CHECK(!row_, "document with a row still open");
    std::string doc = "{\"schema\":\"caba-bench-v1\",\"bench\":\"" +
                      JsonWriter::escape(bench_) + "\",\"cells\":[";
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        if (i)
            doc += ',';
        doc += cells_[i];
    }
    doc += "],\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        if (i)
            doc += ',';
        doc += rows_[i];
    }
    doc += "]}\n";
    return doc;
}

void
BenchJson::write() const
{
    if (path_.empty())
        return;
    if (!writeFile(path_, document())) {
        std::fprintf(stderr, "json: cannot write '%s'\n", path_.c_str());
        std::exit(1);
    }
    std::fprintf(stderr, "json: wrote %s\n", path_.c_str());
}

} // namespace caba

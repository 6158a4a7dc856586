/**
 * @file
 * Implementation of the wall-clock profiler (see prof.h). This file is
 * the sanctioned home for the simulator's host-clock reads: it is on
 * caba-lint's determinism whitelist, and nothing here reads or writes
 * simulation state — the sim stays bit-identical profiler on/off.
 */
#include "common/prof.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <vector>

#include "common/env.h"
#include "common/json.h"
#include "common/log.h"
#include "common/output_file.h"

namespace caba {
namespace prof {

namespace {

struct Table
{
    std::mutex mu;
    std::array<std::int64_t, kBuckets> ns{};
    std::array<std::uint64_t, kBuckets> calls{};
    std::array<std::int64_t, kStages> stage_ns{};
};

/* Constant-initialized, so it is built before EnvActivation registers
 * emit() with atexit and therefore outlives it: the exit report never
 * reads a destroyed table, whenever the first cell touches it. */
constinit Table g_table;

/** Writes `caba-prof-v1` at exit when CABA_PROF was set at startup —
 *  same activation pattern as the trace sink, including the open at
 *  startup that stops the process on a path it cannot write and the
 *  exit status 1 when the report cannot be written. */
struct EnvActivation
{
    std::string path;

    EnvActivation()
    {
        const char *p = env::raw("CABA_PROF");
        if (p == nullptr || p[0] == '\0')
            return;
        std::FILE *f = openForWriting(p);
        if (f == nullptr)
            env::reject("CABA_PROF", p, "a writable file path");
        std::fclose(f);
        path = p;
        onExit(&EnvActivation::emit);
    }

    static void
    emit()
    {
        const std::string &path = activation().path;
        if (path.empty())
            return;
        if (writeReport(path)) {
            std::fprintf(stderr, "caba: profile written to %s\n",
                         path.c_str());
        } else {
            std::fprintf(stderr, "caba: CABA_PROF: cannot write '%s'\n",
                         path.c_str());
            failAtExit();
        }
        reportTopN(stderr, 8);
    }

    static EnvActivation &
    activation()
    {
        /* Deliberately leaked: emit() runs from atexit, which fires
         * after function-local statics registered later in the same
         * constructor would be destroyed — `path` must outlive it. */
        static EnvActivation *a = new EnvActivation;
        return *a;
    }
};

const bool g_env_activated = !EnvActivation::activation().path.empty();

} // namespace

const char *
compName(Comp c)
{
    switch (c) {
    case Comp::Sm:
        return "sm";
    case Comp::XbarReq:
        return "xbar_req";
    case Comp::XbarReply:
        return "xbar_reply";
    case Comp::Partition:
        return "partition";
    case Comp::Wire:
        return "wire";
    case Comp::Loop:
        return "loop";
    case Comp::kCount:
        break;
    }
    CABA_PANIC("bad prof component");
}

const char *
phaseName(Phase p)
{
    switch (p) {
    case Phase::Cycle:
        return "cycle";
    case Phase::CatchUp:
        return "catch_up";
    case Phase::Jump:
        return "jump";
    case Phase::kCount:
        break;
    }
    CABA_PANIC("bad prof phase");
}

const char *
stageName(Stage s)
{
    switch (s) {
    case Stage::Build:
        return "build";
    case Stage::Run:
        return "run";
    case Stage::kCount:
        break;
    }
    CABA_PANIC("bad prof stage");
}

bool
enabledEnv()
{
    (void)g_env_activated; // force activation even if nothing else links it
    const char *p = env::raw("CABA_PROF");
    return p != nullptr && p[0] != '\0';
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
Recorder::flush()
{
    Table &t = g_table;
    std::lock_guard<std::mutex> lock(t.mu);
    for (std::size_t i = 0; i < kBuckets; ++i) {
        t.ns[i] += ns_[i];
        t.calls[i] += calls_[i];
        ns_[i] = 0;
        calls_[i] = 0;
    }
}

void
addStage(Stage s, std::int64_t ns)
{
    Table &t = g_table;
    std::lock_guard<std::mutex> lock(t.mu);
    t.stage_ns[static_cast<std::size_t>(s)] += ns;
}

std::array<std::int64_t, kStages>
stageSnapshot()
{
    Table &t = g_table;
    std::lock_guard<std::mutex> lock(t.mu);
    return t.stage_ns;
}

std::array<Bucket, kBuckets>
snapshot()
{
    std::array<Bucket, kBuckets> out;
    Table &t = g_table;
    std::lock_guard<std::mutex> lock(t.mu);
    for (int c = 0; c < kComps; ++c) {
        for (int p = 0; p < kPhases; ++p) {
            const std::size_t i =
                static_cast<std::size_t>(c * kPhases + p);
            out[i].comp = static_cast<Comp>(c);
            out[i].phase = static_cast<Phase>(p);
            out[i].ns = t.ns[i];
            out[i].calls = t.calls[i];
        }
    }
    return out;
}

void
resetForTest()
{
    Table &t = g_table;
    std::lock_guard<std::mutex> lock(t.mu);
    t.ns.fill(0);
    t.calls.fill(0);
    t.stage_ns.fill(0);
}

bool
writeReport(const std::string &path)
{
    const std::array<Bucket, kBuckets> buckets = snapshot();

    JsonWriter w;
    w.beginObject();
    w.kv("schema", "caba-prof-v1");
    w.key("entries").beginArray();
    for (const Bucket &b : buckets) {
        w.beginObject();
        w.kv("component", compName(b.comp));
        w.kv("phase", phaseName(b.phase));
        w.kv("ns", static_cast<std::uint64_t>(b.ns < 0 ? 0 : b.ns));
        w.kv("calls", b.calls);
        w.endObject();
    }
    w.endArray();
    // The harness stages, in fixed order like the buckets.
    const std::array<std::int64_t, kStages> stages = stageSnapshot();
    w.key("self_profile").beginObject();
    for (int i = 0; i < kStages; ++i) {
        const std::int64_t ns = stages[static_cast<std::size_t>(i)];
        w.kv(stageName(static_cast<Stage>(i)),
             static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
    }
    w.endObject();
    w.endObject();

    return writeFile(path, w.str() + '\n');
}

void
reportTopN(std::FILE *out, int n)
{
    // loop/cycle is each run's inclusive wall time: the whole every
    // share is taken of, so it is not ranked itself. What no other
    // bucket holds is the loop's own overhead, ranked as "unattributed"
    // (the same remainder as perfbench's gpu.unattributed_s).
    struct Row
    {
        const char *comp;
        const char *phase;
        std::int64_t ns;
        std::uint64_t calls;
    };
    std::vector<Row> rows;
    std::int64_t loop = 0;
    std::int64_t attributed = 0;
    for (const Bucket &b : snapshot()) {
        if (b.comp == Comp::Loop && b.phase == Phase::Cycle) {
            loop = b.ns;
            continue;
        }
        attributed += b.ns;
        rows.push_back({compName(b.comp), phaseName(b.phase), b.ns, b.calls});
    }
    if (loop <= 0)
        return;
    rows.push_back({"unattributed", "", loop - attributed, 0});
    // Stable: ties keep the fixed (component, phase) order, the
    // unattributed row last.
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row &a, const Row &b) { return a.ns > b.ns; });
    std::fprintf(out,
                 "caba: profile top %d (shares of %.3fs in loop/cycle):\n", n,
                 static_cast<double>(loop) * 1e-9);
    for (int i = 0; i < n && i < static_cast<int>(rows.size()); ++i) {
        const Row &r = rows[static_cast<std::size_t>(i)];
        if (r.ns <= 0)
            break;
        std::fprintf(out, "  %-12s %-8s %9.3fs %5.1f%%", r.comp, r.phase,
                     static_cast<double>(r.ns) * 1e-9,
                     100.0 * static_cast<double>(r.ns) /
                         static_cast<double>(loop));
        if (r.phase[0] != '\0')
            std::fprintf(out, "  %llu calls",
                         static_cast<unsigned long long>(r.calls));
        std::fputc('\n', out);
    }
}

} // namespace prof
} // namespace caba

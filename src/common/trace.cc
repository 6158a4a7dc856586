#include "common/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <vector>

#include "common/env.h"
#include "common/json.h"
#include "common/log.h"

namespace caba {
namespace trace {

std::atomic<unsigned> g_mask{0};

namespace {

struct Event
{
    const char *name;
    const char *arg_name;
    std::uint64_t ts;
    std::uint64_t dur;
    std::uint64_t arg;
    int pid;
    int tid;
    Category cat;
    char ph;
};

/** Per-thread event buffer; owned jointly by the thread (for lock-free
 *  appends) and the registry (so events survive thread exit). */
struct ThreadBuffer
{
    std::vector<Event> events;
    std::uint64_t session = 0;
};

struct Registry
{
    std::mutex mu;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    std::string path;
    std::atomic<std::uint64_t> session{0};
};

Registry &
registry()
{
    static Registry r;
    return r;
}

ThreadBuffer &
localBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buf = [] {
        auto b = std::make_shared<ThreadBuffer>();
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        r.buffers.push_back(b);
        return b;
    }();
    return *buf;
}

void
emit(const Event &ev)
{
    Registry &r = registry();
    ThreadBuffer &buf = localBuffer();
    const std::uint64_t session = r.session.load(std::memory_order_acquire);
    if (buf.session != session) {
        // Stale events from a previous session: drop them.
        buf.events.clear();
        buf.session = session;
    }
    buf.events.push_back(ev);
}

const char *
categoryName(Category c)
{
    switch (c) {
      case kWarp: return "warp";
      case kAssistWarp: return "assist";
      case kCache: return "cache";
      case kDram: return "dram";
      case kXbar: return "xbar";
      case kSlots: return "slots";
      case kCounter: return "counter";
      default: return "other";
    }
}

void
writeProcessNames(std::FILE *f)
{
    struct { int pid; const char *name; } procs[] = {
        {kPidSm, "SM issue"},       {kPidAssist, "assist warps"},
        {kPidCache, "caches"},      {kPidDram, "dram banks"},
        {kPidXbar, "crossbar"},     {kPidSlots, "issue slots"},
        {kPidCounter, "counters"},
    };
    for (const auto &p : procs) {
        std::fprintf(f,
                     "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                     "\"tid\":0,\"args\":{\"name\":\"%s\"}},\n",
                     p.pid, p.name);
    }
}

void
writeEvent(std::FILE *f, const Event &ev, bool last)
{
    JsonWriter w;
    w.beginObject()
        .kv("name", ev.name)
        .kv("cat", categoryName(ev.cat))
        .kv("ph", std::string(1, ev.ph))
        .kv("ts", ev.ts);
    if (ev.ph == 'X')
        w.kv("dur", ev.dur);
    if (ev.ph == 'i')
        w.kv("s", "t");     // thread-scoped instant
    w.kv("pid", ev.pid).kv("tid", ev.tid);
    if (ev.arg_name) {
        w.key("args").beginObject().kv(ev.arg_name, ev.arg).endObject();
    }
    w.endObject();
    std::fprintf(f, "%s%s\n", w.str().c_str(), last ? "" : ",");
}

/** Reads CABA_TRACE at process start; the matching stop() runs atexit
 *  so a plain `CABA_TRACE=t.json ./bench` writes a complete file. */
struct EnvActivation
{
    EnvActivation()
    {
        const char *path = env::raw("CABA_TRACE");
        if (!path || !*path)
            return;
        unsigned mask = kAll;
        const char *cats = env::raw("CABA_TRACE_CATEGORIES");
        if (cats && *cats)
            mask = maskFromNames(cats);
        start(path, mask);
        std::atexit([] { stop(); });
    }
};
EnvActivation g_env_activation;

} // namespace

unsigned
maskFromNames(const char *csv)
{
    unsigned mask = 0;
    std::string token;
    for (const char *p = csv;; ++p) {
        if (*p != ',' && *p != '\0' && *p != ' ') {
            token += *p;
            continue;
        }
        if (token == "warp")
            mask |= kWarp;
        else if (token == "assist" || token == "assist-warp" ||
                 token == "assist_warp")
            mask |= kAssistWarp;
        else if (token == "cache")
            mask |= kCache;
        else if (token == "dram")
            mask |= kDram;
        else if (token == "xbar")
            mask |= kXbar;
        else if (token == "slots")
            mask |= kSlots;
        else if (token == "counter" || token == "counters")
            mask |= kCounter;
        else if (token == "all")
            mask |= kAll;
        else if (!token.empty())
            env::reject("CABA_TRACE_CATEGORIES", csv,
                        "a comma list of "
                        "warp,assist,cache,dram,xbar,slots,counter,all "
                        "(unknown category '" + token + "')");
        token.clear();
        if (*p == '\0')
            break;
    }
    return mask;
}

bool
active()
{
    return g_mask.load(std::memory_order_relaxed) != 0;
}

void
start(const std::string &path, unsigned mask)
{
    if (active())
        stop();
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.path = path;
    r.session.fetch_add(1, std::memory_order_release);
    g_mask.store(mask & kAll, std::memory_order_release);
}

void
stop()
{
    if (!active())
        return;
    g_mask.store(0, std::memory_order_release);

    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    const std::uint64_t session = r.session.load(std::memory_order_acquire);

    std::vector<Event> all;
    for (const auto &buf : r.buffers) {
        if (buf->session == session) {
            all.insert(all.end(), buf->events.begin(), buf->events.end());
            buf->events.clear();
        }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Event &a, const Event &b) {
                         if (a.ts != b.ts)
                             return a.ts < b.ts;
                         if (a.pid != b.pid)
                             return a.pid < b.pid;
                         return a.tid < b.tid;
                     });

    const std::filesystem::path out(r.path);
    std::error_code ec;
    if (out.has_parent_path())
        std::filesystem::create_directories(out.parent_path(), ec);
    std::FILE *f = std::fopen(r.path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "trace: cannot open %s for writing\n",
                     r.path.c_str());
        return;
    }
    std::fprintf(f, "{\"traceEvents\":[\n");
    writeProcessNames(f);
    for (std::size_t i = 0; i < all.size(); ++i)
        writeEvent(f, all[i], i + 1 == all.size());
    if (all.empty()) {
        // The process-name block above ends with a comma; close the
        // array with a harmless final metadata event.
        std::fprintf(f, "{\"name\":\"trace_end\",\"ph\":\"M\",\"pid\":0,"
                        "\"tid\":0,\"args\":{}}\n");
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
    std::fclose(f);
}

void
instant(Category cat, int pid, int tid, const char *name, Cycle ts,
        const char *arg_name, std::uint64_t arg)
{
    if (!on(cat))
        return;
    emit({name, arg_name, ts, 0, arg, pid, tid, cat, 'i'});
}

void
complete(Category cat, int pid, int tid, const char *name, Cycle ts,
         Cycle dur, const char *arg_name, std::uint64_t arg)
{
    if (!on(cat))
        return;
    emit({name, arg_name, ts, dur, arg, pid, tid, cat, 'X'});
}

void
counter(Category cat, int pid, int tid, const char *name, Cycle ts,
        std::uint64_t value)
{
    if (!on(cat))
        return;
    emit({name, "value", ts, 0, value, pid, tid, cat, 'C'});
}

} // namespace trace
} // namespace caba

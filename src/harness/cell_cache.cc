#include "harness/cell_cache.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/audit.h"
#include "common/env.h"
#include "common/log.h"

namespace caba {

/* Bump this string whenever a change can alter any RunResult (timing,
 * stats, codecs, energy, workload generation ...). The audited
 * hit-vs-recompute self-check exists to catch a forgotten bump, but the
 * bump is the contract. */
const char *const kCellCacheCodeVersion = "caba-cells-2";

namespace {

/* Every struct rendered into the key must be rendered completely: a
 * field the key misses is a stale-result bug. These sizes (x86-64
 * System V ABI, the only ABI CI builds) trip the build when a field is
 * added, pointing here to extend the key text. */
#if defined(__x86_64__)
static_assert(sizeof(AppDescriptor) == 160,
              "AppDescriptor changed: update cellKeyText and bump "
              "kCellCacheCodeVersion");
static_assert(sizeof(DataMix) == 24,
              "DataMix changed: update cellKeyText and bump "
              "kCellCacheCodeVersion");
static_assert(sizeof(DesignConfig) == 56,
              "DesignConfig changed: update cellKeyText and bump "
              "kCellCacheCodeVersion");
static_assert(sizeof(ExtrasConfig) == 32,
              "ExtrasConfig changed: update cellKeyText and bump "
              "kCellCacheCodeVersion");
static_assert(sizeof(CabaConfig) == 32,
              "CabaConfig changed: update cellKeyText and bump "
              "kCellCacheCodeVersion");
#endif

/** %.17g renders the shortest round-trippable decimal form, the same
 *  convention as the JSON export. */
void
kvReal(std::ostringstream &os, const char *k, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << k << '=' << buf << '\n';
}

void
kvInt(std::ostringstream &os, const char *k, long long v)
{
    os << k << '=' << v << '\n';
}

void
kvStr(std::ostringstream &os, const char *k, const std::string &v)
{
    os << k << '=' << v << '\n';
}

constexpr char kMagic[8] = {'C', 'A', 'B', 'A', 'C', 'E', 'L', '1'};

std::uint64_t
fnv1a(const char *p, std::size_t n, std::uint64_t h)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(p[i]);
        h *= 1099511628211ull;
    }
    return h;
}

void
putU64(std::string &out, std::uint64_t v)
{
    char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<char>(v >> (8 * i));
    out.append(b, 8);
}

void
putF64(std::string &out, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    putU64(out, bits);
}

void
putStr(std::string &out, const std::string &s)
{
    putU64(out, s.size());
    out.append(s);
}

/** Bounds-checked little-endian reader over a serialized cell. */
struct Reader
{
    const std::string &in;
    std::size_t pos = 0;
    bool ok = true;

    std::uint64_t
    u64()
    {
        if (pos + 8 > in.size()) {
            ok = false;
            return 0;
        }
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(in[pos + i]))
                 << (8 * i);
        pos += 8;
        return v;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        if (!ok || pos + n > in.size()) {
            ok = false;
            return std::string();
        }
        std::string s = in.substr(pos, n);
        pos += n;
        return s;
    }
};

bool
readFileBytes(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

} // namespace

std::string
cellKeyText(const AppDescriptor &app, const DesignConfig &design,
            const ExperimentOptions &resolved,
            const std::string &code_version)
{
    std::ostringstream os;
    kvStr(os, "code_version", code_version);

    kvStr(os, "app.name", app.name);
    kvStr(os, "app.suite", app.suite);
    kvInt(os, "app.memory_bound", app.memory_bound);
    kvInt(os, "app.in_fig1", app.in_fig1);
    kvInt(os, "app.in_compression", app.in_compression);
    kvInt(os, "app.regs_per_thread", app.regs_per_thread);
    kvInt(os, "app.threads_per_block", app.threads_per_block);
    kvInt(os, "app.loads", app.loads);
    kvInt(os, "app.stores", app.stores);
    kvInt(os, "app.alu", app.alu);
    kvInt(os, "app.sfu", app.sfu);
    kvInt(os, "app.shmem", app.shmem);
    kvInt(os, "app.pattern", static_cast<int>(app.pattern));
    kvInt(os, "app.stride_bytes", app.stride_bytes);
    kvReal(os, "app.irregular_frac", app.irregular_frac);
    kvInt(os, "app.footprint", static_cast<long long>(app.footprint));
    kvInt(os, "app.iterations", app.iterations);
    kvInt(os, "app.data.primary", static_cast<int>(app.data.primary));
    kvInt(os, "app.data.secondary", static_cast<int>(app.data.secondary));
    kvReal(os, "app.data.secondary_frac", app.data.secondary_frac);
    kvReal(os, "app.data.zero_frac", app.data.zero_frac);
    kvReal(os, "app.memo_hit_rate", app.memo_hit_rate);

    kvStr(os, "design.name", design.name);
    kvInt(os, "design.algo", static_cast<int>(design.algo));
    kvInt(os, "design.mem_compressed", design.mem_compressed);
    kvInt(os, "design.xbar_compressed", design.xbar_compressed);
    kvInt(os, "design.decompress", static_cast<int>(design.decompress));
    kvInt(os, "design.caba_compress_stores", design.caba_compress_stores);
    kvInt(os, "design.md_overhead", design.md_overhead);
    kvInt(os, "design.l1_tag_factor", design.l1_tag_factor);
    kvInt(os, "design.l2_tag_factor", design.l2_tag_factor);

    kvReal(os, "opts.scale", resolved.scale);
    kvReal(os, "opts.bw_scale", resolved.bw_scale);
    kvInt(os, "opts.assist_regs", resolved.assist_regs);
    kvInt(os, "opts.verify", resolved.verify);
    kvInt(os, "opts.extras.memoize", resolved.extras.memoize);
    kvReal(os, "opts.extras.memo_hit_rate", resolved.extras.memo_hit_rate);
    kvInt(os, "opts.extras.prefetch", resolved.extras.prefetch);
    kvInt(os, "opts.extras.prefetch_lookahead",
          resolved.extras.prefetch_lookahead);
    kvInt(os, "opts.extras.profile", resolved.extras.profile);
    kvInt(os, "opts.extras.profile_interval",
          resolved.extras.profile_interval);
    kvInt(os, "opts.caba.awt_entries", resolved.caba.awt_entries);
    kvInt(os, "opts.caba.awb_low_slots", resolved.caba.awb_low_slots);
    kvInt(os, "opts.caba.throttle", resolved.caba.throttle);
    kvInt(os, "opts.caba.throttle_window", resolved.caba.throttle_window);
    kvReal(os, "opts.caba.throttle_idle_floor",
           resolved.caba.throttle_idle_floor);
    kvInt(os, "opts.caba.store_buffer", resolved.caba.store_buffer);
    kvInt(os, "opts.caba.decompress_high_priority",
          resolved.caba.decompress_high_priority);
    kvInt(os, "opts.caba.compress_low_priority",
          resolved.caba.compress_low_priority);
    kvInt(os, "opts.md_cache_kb", resolved.md_cache_kb);
    kvInt(os, "opts.max_warps", resolved.max_warps);
    return os.str();
}

std::string
cellKeyHash(const std::string &key_text)
{
    // Two independent FNV-1a 64 streams give a 128-bit content address;
    // the embedded key text in every entry catches the residual
    // collision case on load.
    const std::uint64_t a =
        fnv1a(key_text.data(), key_text.size(), 14695981039346656037ull);
    const std::uint64_t b =
        fnv1a(key_text.data(), key_text.size(), 1099511628211ull * 31 + 7);
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b));
    return buf;
}

std::string
serializeCell(const std::string &key_text, const RunResult &r)
{
    std::string out(kMagic, sizeof kMagic);
    putStr(out, key_text);

    putU64(out, r.cycles);
    putU64(out, r.instructions);
    putF64(out, r.ipc);
    putF64(out, r.bw_utilization);
    putF64(out, r.compression_ratio);
    putF64(out, r.md_hit_rate);

    putF64(out, r.energy.core);
    putF64(out, r.energy.l1);
    putF64(out, r.energy.l2);
    putF64(out, r.energy.xbar);
    putF64(out, r.energy.dram);
    putF64(out, r.energy.compression);
    putF64(out, r.energy.static_energy);
    putF64(out, r.energy.total);

    putU64(out, r.stats.all().size());
    for (const auto &[k, v] : r.stats.all()) {
        putStr(out, k);
        putU64(out, v);
        putU64(out, r.stats.isGauge(k) ? 1 : 0);
    }
    putU64(out, r.stats.allDists().size());
    for (const auto &[k, d] : r.stats.allDists()) {
        putStr(out, k);
        putU64(out, d.count());
        putU64(out, d.sum());
        putU64(out, d.min());
        putU64(out, d.max());
        for (const std::uint64_t b : d.buckets())
            putU64(out, b);
    }
    putU64(out, r.timeline.size());
    for (const TimeSample &t : r.timeline) {
        putU64(out, t.cycle);
        putU64(out, t.instructions);
        putU64(out, t.dram_bursts);
    }
    putU64(out, fnv1a(out.data(), out.size(), 14695981039346656037ull));
    return out;
}

bool
deserializeCell(const std::string &blob, const std::string &expect_key,
                RunResult *out, std::string *error)
{
    if (blob.size() < sizeof kMagic + 8 ||
        std::memcmp(blob.data(), kMagic, sizeof kMagic) != 0) {
        *error = "bad magic";
        return false;
    }
    const std::size_t body = blob.size() - 8;
    Reader tail{blob, body};
    if (tail.u64() !=
        fnv1a(blob.data(), body, 14695981039346656037ull)) {
        *error = "checksum mismatch";
        return false;
    }

    Reader rd{blob, sizeof kMagic};
    if (rd.str() != expect_key) {
        *error = "key text mismatch (collision or stale entry)";
        return false;
    }
    RunResult r;
    r.cycles = rd.u64();
    r.instructions = rd.u64();
    r.ipc = rd.f64();
    r.bw_utilization = rd.f64();
    r.compression_ratio = rd.f64();
    r.md_hit_rate = rd.f64();
    r.energy.core = rd.f64();
    r.energy.l1 = rd.f64();
    r.energy.l2 = rd.f64();
    r.energy.xbar = rd.f64();
    r.energy.dram = rd.f64();
    r.energy.compression = rd.f64();
    r.energy.static_energy = rd.f64();
    r.energy.total = rd.f64();

    const std::uint64_t n_stats = rd.u64();
    for (std::uint64_t i = 0; rd.ok && i < n_stats; ++i) {
        const std::string name = rd.str();
        const std::uint64_t value = rd.u64();
        const bool gauge = rd.u64() != 0;
        if (!rd.ok)
            break;
        if (gauge)
            r.stats.set(name, value);
        else
            r.stats.setCounter(name, value);
    }
    const std::uint64_t n_dists = rd.u64();
    for (std::uint64_t i = 0; rd.ok && i < n_dists; ++i) {
        const std::string name = rd.str();
        const std::uint64_t count = rd.u64();
        const std::uint64_t sum = rd.u64();
        const std::uint64_t min = rd.u64();
        const std::uint64_t max = rd.u64();
        std::array<std::uint64_t, Distribution::kBuckets> buckets{};
        for (int b = 0; b < Distribution::kBuckets; ++b)
            buckets[static_cast<std::size_t>(b)] = rd.u64();
        if (!rd.ok)
            break;
        r.stats.dist(name) =
            Distribution::restore(count, sum, min, max, buckets);
    }
    const std::uint64_t n_timeline = rd.u64();
    for (std::uint64_t i = 0; rd.ok && i < n_timeline; ++i) {
        TimeSample t;
        t.cycle = rd.u64();
        t.instructions = rd.u64();
        t.dram_bursts = rd.u64();
        r.timeline.push_back(t);
    }
    if (!rd.ok || rd.pos != body) {
        *error = "truncated or trailing bytes";
        return false;
    }
    *out = std::move(r);
    return true;
}

CellCache &
CellCache::instance()
{
    static CellCache cache;
    return cache;
}

void
CellCache::configure(std::string dir, std::string code_version,
                     bool in_process, bool self_check)
{
    std::lock_guard<std::mutex> lock(mu_);
    resolved_ = true;
    dir_ = std::move(dir);
    version_ = std::move(code_version);
    in_process_ = in_process;
    self_check_ = self_check;
    inproc_.clear();
    stats_ = CellCacheStats{};
}

void
CellCache::enableInProcess()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!resolved_)
        resolveFromEnv();
    in_process_ = true;
}

void
CellCache::resolveFromEnv()
{
    // Called under mu_. getenv here is as safe as the rest of the env
    // registry: tests mutate the environment only between sweeps.
    const char *dir = env::raw("CABA_CACHE_DIR");
    dir_ = dir ? dir : "";
    version_ = kCellCacheCodeVersion;
    // Self-check cache hits whenever periodic audits are requested
    // (CABA_AUDIT=full or a numeric period): the same "spend cycles to
    // prove bookkeeping" dial the audit layer uses.
    AuditConfig audit = AuditConfig::applySpec(AuditConfig{},
                                               env::raw("CABA_AUDIT"));
    self_check_ = audit.level == AuditLevel::Periodic;
    resolved_ = true;
}

bool
CellCache::enabled()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!resolved_)
        resolveFromEnv();
    return !dir_.empty() || in_process_;
}

std::string
CellCache::entryPath(const std::string &hash)
{
    std::lock_guard<std::mutex> lock(mu_);
    return dir_ + "/" + hash.substr(0, 2) + "/" + hash + ".cell";
}

CellCacheStats
CellCache::stats()
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
CellCache::resetStats()
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = CellCacheStats{};
}

void
CellCache::clearInProcess()
{
    std::lock_guard<std::mutex> lock(mu_);
    inproc_.clear();
}

RunResult
CellCache::runCell(const AppDescriptor &app, const DesignConfig &design,
                   const ExperimentOptions &opts,
                   const std::function<RunResult()> &simulate)
{
    ExperimentOptions resolved = opts;
    resolved.scale = opts.scale * scaleFromEnv();
    resolved.jobs = 0;          // worker count cannot affect a result
    resolved.json_out.clear();  // output path is not a semantic input

    std::string dir, version;
    bool in_process, self_check;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!resolved_)
            resolveFromEnv();
        dir = dir_;
        version = version_;
        in_process = in_process_;
        self_check = self_check_;
    }
    const std::string key = cellKeyText(app, design, resolved, version);
    const std::string hash = cellKeyHash(key);

    if (in_process) {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = inproc_.find(hash);
        if (it != inproc_.end()) {
            ++stats_.inproc_hits;
            return it->second;
        }
    }

    const std::string path =
        dir.empty() ? std::string()
                    : dir + "/" + hash.substr(0, 2) + "/" + hash + ".cell";
    RunResult result;
    bool have = false;
    bool from_disk = false;
    if (!path.empty()) {
        std::string blob;
        if (readFileBytes(path, &blob)) {
            std::string err;
            if (deserializeCell(blob, key, &result, &err)) {
                have = true;
                from_disk = true;
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.disk_hits;
            } else {
                std::fprintf(stderr,
                             "cell-cache: evicting %s (%s); recomputing\n",
                             path.c_str(), err.c_str());
                std::error_code ec;
                std::filesystem::remove(path, ec);
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.evictions;
                ++stats_.disk_misses;
            }
        } else {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.disk_misses;
        }
    }

    if (!have) {
        result = simulate();
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.simulations;
        }
        if (!path.empty()) {
            const std::filesystem::path entry(path);
            std::error_code ec;
            std::filesystem::create_directories(entry.parent_path(), ec);
            // Atomic publication: concurrent writers (other processes
            // sharing the directory) each rename a private temp file.
            const std::string tmp =
                path + ".tmp." + std::to_string(::getpid());
            std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
            const std::string blob = serializeCell(key, result);
            out.write(blob.data(),
                      static_cast<std::streamsize>(blob.size()));
            out.close();
            if (out.good()) {
                std::filesystem::rename(tmp, path, ec);
                if (!ec) {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++stats_.stores;
                } else {
                    std::filesystem::remove(tmp, ec);
                }
            } else {
                std::fprintf(stderr, "cell-cache: cannot write %s\n",
                             tmp.c_str());
                std::error_code rm;
                std::filesystem::remove(tmp, rm);
            }
        }
    } else if (from_disk && self_check) {
        RunResult fresh = simulate();
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.self_checks;
            ++stats_.simulations;
        }
        CABA_CHECK(serializeCell(key, fresh) == serializeCell(key, result),
                   "cell-cache: cached cell differs from recomputation — "
                   "stale entries under CABA_CACHE_DIR (bump "
                   "kCellCacheCodeVersion or clear the cache)");
    }

    if (in_process) {
        std::lock_guard<std::mutex> lock(mu_);
        inproc_.emplace(hash, result);
    }
    return result;
}

} // namespace caba

#include "harness/cell_cache.h"

#include <cstdio>
#include <sstream>

namespace caba {

namespace {

/* Every struct rendered into the key must be rendered completely: a
 * field the key misses is a stale-result bug. These sizes (x86-64
 * System V ABI, the only ABI CI builds) trip the build when a field is
 * added, pointing here to extend the key text. */
#if defined(__x86_64__)
static_assert(sizeof(AppDescriptor) == 160,
              "AppDescriptor changed: update cellKeyText");
static_assert(sizeof(DataMix) == 24, "DataMix changed: update cellKeyText");
static_assert(sizeof(DesignConfig) == 56,
              "DesignConfig changed: update cellKeyText");
static_assert(sizeof(ExtrasConfig) == 32,
              "ExtrasConfig changed: update cellKeyText");
static_assert(sizeof(CabaConfig) == 32,
              "CabaConfig changed: update cellKeyText");
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

} // namespace

std::string
cellKeyText(const AppDescriptor &app, const DesignConfig &design,
            const ExperimentOptions &resolved)
{
    std::ostringstream os;
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

CellCache &
CellCache::instance()
{
    static CellCache cache;
    return cache;
}

void
CellCache::setEnabled(bool on)
{
    std::lock_guard<std::mutex> lock(mu_);
    enabled_ = on;
    memo_.clear();
    stats_ = CellCacheStats{};
}

bool
CellCache::enabled()
{
    std::lock_guard<std::mutex> lock(mu_);
    return enabled_;
}

CellCacheStats
CellCache::stats()
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

RunResult
CellCache::runCell(const AppDescriptor &app, const DesignConfig &design,
                   const ExperimentOptions &opts,
                   const std::function<RunResult()> &simulate)
{
    ExperimentOptions resolved = opts;
    resolved.scale = opts.scale * scaleFromEnv();
    resolved.jobs = 0;  // worker count cannot affect a result
    std::string key = cellKeyText(app, design, resolved);

    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = memo_.find(key);
        if (it != memo_.end()) {
            ++stats_.hits;
            return it->second;
        }
    }

    RunResult result = simulate();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.simulations;
    memo_.emplace(std::move(key), result);
    return result;
}

} // namespace caba

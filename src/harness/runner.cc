#include "harness/runner.h"

#include <cmath>
#include <cstdio>
#include <optional>

#include "common/env.h"
#include "common/log.h"
#include "common/prof.h"
#include "harness/cell_cache.h"

namespace caba {

double
scaleFromEnv(double fallback)
{
    // Cached on first use (thread-safe magic static): runApp executes on
    // sweep worker threads, and getenv is not guaranteed safe against
    // concurrent environment mutation.
    static const double env_scale = env::positiveRealOr("CABA_SCALE", 0.0);
    return env_scale > 0.0 ? env_scale : fallback;
}

GpuConfig
makeGpuConfig(const ExperimentOptions &opts)
{
    GpuConfig cfg;
    cfg.bw_scale = opts.bw_scale;
    cfg.verify_data = opts.verify;
    cfg.extras = opts.extras;
    cfg.caba = opts.caba;
    cfg.partition.md_size_bytes = opts.md_cache_kb * 1024;
    return cfg;
}

namespace {

/** The uncached simulation proper (runApp body before the cell cache). */
RunResult
simulateApp(const AppDescriptor &app, const DesignConfig &design,
            const ExperimentOptions &opts)
{
    std::optional<GpuSystem> gpu;
    int warps = 0;
    std::optional<Workload> wl;
    {
        prof::StageScope scope(prof::Stage::Build);
        wl.emplace(app, opts.scale * scaleFromEnv());
        GpuConfig cfg = makeGpuConfig(opts);

        // Section 3.2.2: assist-warp registers are added to the
        // per-block requirement; occupancy may drop if they do not fit
        // the free pool.
        const int assist = design.usesCaba() ? opts.assist_regs : 0;
        warps = wl->warpsPerSm(assist, cfg.sm.max_warps);
        if (opts.max_warps > 0 && warps > opts.max_warps)
            warps = opts.max_warps;
        wl->bindGrid(warps * cfg.num_sms);
        gpu.emplace(cfg, design, wl->lineGenerator());
    }
    prof::StageScope scope(prof::Stage::Run);
    gpu->launch(&*wl, warps);
    return gpu->run();
}

} // namespace

RunResult
runApp(const AppDescriptor &app, const DesignConfig &design,
       const ExperimentOptions &opts)
{
    CellCache &cache = CellCache::instance();
    if (cache.enabled())
        return cache.runCell(app, design, opts, [&] {
            return simulateApp(app, design, opts);
        });
    return simulateApp(app, design, opts);
}

SlotShares
slotShares(const RunResult &r)
{
    const auto slots = [&](const char *name) {
        return static_cast<double>(
            r.stats.get(std::string("sm_") + name));
    };
    SlotShares s;
    s.active = slots("slot_issued") + slots("slot_aw_issued");
    s.memory = slots("slot_mem_struct") + slots("slot_mem_data");
    s.data = slots("slot_scoreboard");
    s.compute = slots("slot_comp_struct");
    s.idle = slots("slot_ibuf_empty") + slots("slot_sync") +
             slots("slot_idle");
    const double total =
        s.active + s.memory + s.data + s.compute + s.idle;
    if (total > 0) {
        s.active /= total;
        s.memory /= total;
        s.data /= total;
        s.compute /= total;
        s.idle /= total;
    }
    return s;
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    int n = 0;
    for (double v : values) {
        if (v > 0.0) {
            log_sum += std::log(v);
            ++n;
        }
    }
    return n == 0 ? 0.0 : std::exp(log_sum / n);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

void
printSystemConfig(const ExperimentOptions &opts)
{
    const GpuConfig cfg = makeGpuConfig(opts);
    std::printf(
        "System (Table 1): %d SMs, %d warps/SM, GTO, %d schedulers/SM, "
        "%dKB L1/SM, %dKB L2 total, %d GDDR5 MCs, BW scale %.2fx, "
        "workload scale %.2fx\n\n",
        cfg.num_sms, cfg.sm.max_warps, cfg.sm.schedulers,
        cfg.sm.l1.size_bytes / 1024,
        cfg.partition.l2.size_bytes * cfg.num_partitions / 1024,
        cfg.num_partitions, opts.bw_scale, opts.scale * scaleFromEnv());
}

} // namespace caba

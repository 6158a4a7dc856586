#include "perfbench.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "compress/registry.h"
#include "workloads/workload.h"

namespace perfbench {

using caba::prof::Comp;
using caba::prof::Phase;

namespace {

/** caba_bench's ExperimentOptions defaults that shape a cell. */
constexpr int kAssistRegs = 2;
constexpr int kMdCacheBytes = 8 * 1024;

std::size_t
bucket(Comp c, Phase p)
{
    return static_cast<std::size_t>(static_cast<int>(c) *
                                        caba::prof::kPhases +
                                    static_cast<int>(p));
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Whole passes needed for a p90 over @p cells_per_pass cells a pass. */
int
minPasses(std::size_t cells_per_pass)
{
    const std::size_t need = kMinTail * 10;
    return static_cast<int>((need + cells_per_pass - 1) / cells_per_pass);
}

void
fnv(std::uint64_t &h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
}

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, format, v);
    return buf;
}

} // namespace

// ------------------------------------------------------------- statistics

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    // VmHWM covers this process image only; getrusage's ru_maxrss also
    // keeps the peak of the process that exec'd it.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;   // kB
    return 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<double>
percentile(std::vector<double> v, double q, std::size_t min_tail)
{
    const double n = static_cast<double>(v.size());
    if (v.empty() || n * (1.0 - q) < static_cast<double>(min_tail) - 1e-9)
        return std::nullopt;
    std::sort(v.begin(), v.end());
    // Harrell-Davis: order statistic i (1-based) weighs the
    // Beta((n+1)q, (n+1)(1-q)) mass on [(i-1)/n, i/n], integrated by
    // Simpson's rule.
    const double a = q * (n + 1.0);
    const double b = (1.0 - q) * (n + 1.0);
    const double log_beta = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
    const auto pdf = [&](double x) {
        return x <= 0.0 || x >= 1.0
                   ? 0.0
                   : std::exp((a - 1.0) * std::log(x) +
                              (b - 1.0) * std::log1p(-x) - log_beta);
    };
    constexpr int kSteps = 16;
    const double h = 1.0 / (n * kSteps);
    double sum = 0.0, total = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        const double lo = static_cast<double>(i) / n;
        double w = pdf(lo) + pdf(lo + kSteps * h);
        for (int s = 1; s < kSteps; ++s)
            w += (s % 2 == 1 ? 4.0 : 2.0) * pdf(lo + s * h);
        sum += w * v[i];
        total += w;
    }
    return sum / total;
}

CpuPicker::CpuPicker(std::function<void()> probe) : probe_(std::move(probe))
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                cpus_.push_back(c);
}

void
CpuPicker::maybePick()
{
    if (cpus_.size() < 2 || (picks_ > 0 && nowS() < next_pick_s_))
        return;
    const double start = nowS();
    const auto pin = [](int cpu) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return sched_setaffinity(0, sizeof one, &one) == 0;
    };
    int best_cpu = -1;
    double best_s = 0.0;
    for (int cpu : cpus_) {
        if (!pin(cpu))
            continue;
        // The first probe also warms this CPU's caches; the faster of
        // the two counts.
        for (int rep = 0; rep < 2; ++rep) {
            const double t0 = nowS();
            probe_();
            const double s = nowS() - t0;
            if (best_cpu < 0 || s < best_s) {
                best_cpu = cpu;
                best_s = s;
            }
        }
    }
    if (best_cpu >= 0)
        pin(best_cpu);
    // Re-probe every half second, or less often when probing many CPUs
    // would take more than a tenth of the run.
    const double now = nowS();
    next_pick_s_ = now + std::max(0.5, 9.0 * (now - start));
    ++picks_;
}

std::uint64_t
digest(const caba::RunResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const std::uint64_t cycles = r.cycles;
    fnv(h, &cycles, sizeof cycles);
    fnv(h, &r.instructions, sizeof r.instructions);
    for (const auto &[name, value] : r.stats.all()) {
        fnv(h, name.c_str(), name.size() + 1);
        fnv(h, &value, sizeof value);
    }
    return h;
}

std::int64_t
unattributedNs(const std::array<std::int64_t, caba::prof::kBuckets> &ns)
{
    const std::size_t loop = bucket(Comp::Loop, Phase::Cycle);
    std::int64_t rest = 0;
    for (std::size_t i = 0; i < ns.size(); ++i)
        if (i != loop)
            rest += ns[i];
    return ns[loop] - rest;
}

// --------------------------------------------------------------- fidelity

double
errPp(double simulated_pct, double paper_pct)
{
    return std::fabs(simulated_pct - paper_pct);
}

std::array<double, 4>
fidelity(const std::vector<CellFigures> &cells)
{
    std::map<std::string, std::map<std::string, const CellFigures *>> apps;
    for (const CellFigures &c : cells)
        apps[c.app][c.design] = &c;
    double log_caba = 0.0, log_hwmem = 0.0, util = 0.0, md = 0.0;
    int n_speedup = 0, n_util = 0, n_md = 0;
    for (const auto &[app, designs] : apps) {
        const auto find = [&](const char *name) -> const CellFigures * {
            const auto it = designs.find(name);
            return it == designs.end() ? nullptr : it->second;
        };
        const CellFigures *base = find("Base");
        const CellFigures *caba = find("CABA-BDI");
        const CellFigures *hwmem = find("HW-BDI-Mem");
        if (base != nullptr) {
            util += base->bw_utilization;
            ++n_util;
        }
        if (caba != nullptr) {
            md += caba->md_hit_rate;
            ++n_md;
        }
        if (base != nullptr && caba != nullptr && hwmem != nullptr &&
            caba->cycles > 0 && hwmem->cycles > 0) {
            const double b = static_cast<double>(base->cycles);
            log_caba += std::log(b / static_cast<double>(caba->cycles));
            log_hwmem += std::log(b / static_cast<double>(hwmem->cycles));
            ++n_speedup;
        }
    }
    const double g_caba = n_speedup > 0 ? std::exp(log_caba / n_speedup) : 0;
    const double g_hwmem =
        n_speedup > 0 ? std::exp(log_hwmem / n_speedup) : 0;
    return {100.0 * (g_caba - 1.0),
            n_speedup > 0 ? 100.0 * (g_caba / g_hwmem - 1.0) : 0.0,
            100.0 * ratio(util, n_util), 100.0 * ratio(md, n_md)};
}

// ---------------------------------------------------------------- golden

Golden
readGolden(const std::string &path)
{
    Golden golden;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string label;
        fields >> label;
        std::vector<std::uint64_t> values;
        std::uint64_t v = 0;
        while (fields >> v)
            values.push_back(v);
        golden[label] = std::move(values);
    }
    return golden;
}

bool
writeGolden(const std::string &path, const Golden &golden,
            const std::string &header)
{
    std::ofstream out(path);
    out << "# " << header << '\n';
    for (const auto &[label, values] : golden) {
        out << label;
        for (std::uint64_t v : values)
            out << ' ' << v;
        out << '\n';
    }
    return static_cast<bool>(out);
}

// ---------------------------------------------------------------- report

const std::vector<MetricDef> kLayerMetrics = {
    // Measured in the untraced passes: per-cell percentiles, and the
    // throughputs of one workload kind.
    {"cell_s_p50", "s"},
    {"cell_s_p90", "s"},
    {"sim_kcycles_per_s", "kcycles/s"},
    {"compress_lines_per_s", "lines/s"},
    {"decompress_lines_per_s", "lines/s"},
    // Fidelity against kPaperClaims (fig07_sweep).
    {"caba_gain_pct", "%"},
    {"caba_gain_err_pp", "pp"},
    {"caba_vs_hwmem_pct", "%"},
    {"caba_vs_hwmem_err_pp", "pp"},
    {"base_dram_util_pct", "%"},
    {"base_dram_util_err_pp", "pp"},
    {"md_hit_rate_pct", "%"},
    {"md_hit_rate_err_pp", "pp"},
    // compress: codec host time (codec_roundtrip) ...
    {"compress.bdi.compress_ns_per_line", "ns/line"},
    {"compress.bdi.decompress_ns_per_line", "ns/line"},
    {"compress.fpc.compress_ns_per_line", "ns/line"},
    {"compress.fpc.decompress_ns_per_line", "ns/line"},
    {"compress.cpack.compress_ns_per_line", "ns/line"},
    {"compress.cpack.decompress_ns_per_line", "ns/line"},
    {"compress.best_of_all.compress_ns_per_line", "ns/line"},
    {"compress.best_of_all.decompress_ns_per_line", "ns/line"},
    // ... and the in-simulator compression model (sweeps).
    {"compress.lines_compressed", "count"},
    {"compress.memo_evictions", "count"},
    {"compress.ratio", "ratio"},
    // sim: the SM issue loop.
    {"sim.sm_cycle_s", "s"},
    {"sim.sm_catch_up_s", "s"},
    {"sim.sm_calls", "count"},
    {"sim.sm_ns_per_call", "ns/call"},
    {"sim.cycles", "cycles"},
    {"sim.warp_insts", "count"},
    {"sim.slot_issued_frac", "frac"},
    {"sim.slot_mem_frac", "frac"},
    // caba: assist warps (their host time lands in sim.sm_*).
    {"caba.assist_insts", "count"},
    {"caba.awc_triggers", "count"},
    {"caba.awc_kill_frac", "frac"},
    // mem: crossbars, then the partition (L2, MD cache, DRAM).
    {"mem.xbar_cycle_s", "s"},
    {"mem.xbar_ns_per_packet", "ns/packet"},
    {"mem.xbar_packets", "count"},
    {"mem.partition_cycle_s", "s"},
    {"mem.partition_catch_up_s", "s"},
    {"mem.partition_ns_per_call", "ns/call"},
    {"mem.partition_ns_per_dram_access", "ns/access"},
    {"mem.l1_hit_rate", "frac"},
    {"mem.l2_hit_rate", "frac"},
    {"mem.dram_accesses", "count"},
    {"mem.dram_row_hit_rate", "frac"},
    {"mem.dram_bw_util", "frac"},
    {"mem.md_hit_rate", "frac"},
    // gpu: the run loop that drives the layers above.
    {"gpu.construct_s", "s"},
    {"gpu.run_s", "s"},
    {"gpu.ns_per_sim_cycle", "ns/cycle"},
    {"gpu.wire_s", "s"},
    {"gpu.jump_s", "s"},
    {"gpu.jumps", "count"},
    {"gpu.unattributed_s", "s"},
    // workloads: kernel/stream set-up and the data generators.
    {"workloads.build_s", "s"},
    {"workloads.generate_ns_per_line", "ns/line"},
    {"trace.overhead_frac", "frac"},
};

Report::Report()
{
    for (const MetricDef &m : kLayerMetrics)
        layers.push_back({m.name, 0.0, m.unit});
}

void
Report::fail(const std::string &why, std::uint64_t n)
{
    failed += n;
    failures.push_back(why);
}

void
Report::layer(const std::string &name, double value)
{
    for (Metric &m : layers) {
        if (m.name == name) {
            m.value = value;
            return;
        }
    }
    std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
                 name.c_str());
    std::abort();
}

// ---------------------------------------------------------------- sweeps

std::string
SimCell::label() const
{
    std::string s = app.name + "/" + design.name;
    if (bw_scale != 1.0)
        s += fmt("@%.1fx", bw_scale);
    return s;
}

std::vector<SimCell>
fig07Cells()
{
    const caba::DesignConfig designs[] = {
        caba::DesignConfig::base(), caba::DesignConfig::hwMem(),
        caba::DesignConfig::hw(), caba::DesignConfig::caba(),
        caba::DesignConfig::ideal()};
    std::vector<SimCell> cells;
    for (const caba::AppDescriptor &app : caba::compressionApps())
        for (const caba::DesignConfig &d : designs)
            cells.push_back({app, d, 1.0, std::nullopt});
    return cells;
}

std::vector<SimCell>
computeCells()
{
    std::vector<SimCell> cells;
    for (const caba::AppDescriptor &app : caba::fig1Apps()) {
        // Irregular access (dmr) alone would take most of the pool's
        // host time, and its streams depend on the seed.
        if (app.memory_bound ||
            app.pattern == caba::AccessPattern::Irregular)
            continue;
        for (double bw : {0.5, 1.0, 2.0})
            cells.push_back({app, caba::DesignConfig::base(), bw,
                             std::nullopt});
    }
    return cells;
}

CellSpans &
CellSpans::operator+=(const CellSpans &o)
{
    build_s += o.build_s;
    construct_s += o.construct_s;
    launch_s += o.launch_s;
    run_s += o.run_s;
    for (std::size_t i = 0; i < prof_ns.size(); ++i) {
        prof_ns[i] += o.prof_ns[i];
        prof_calls[i] += o.prof_calls[i];
    }
    return *this;
}

CellRun
runCell(const SimCell &cell, double scale, std::uint64_t seed, bool traced)
{
    CellRun out;
    // GpuSystem samples CABA_PROF once, in its constructor. Set after
    // start-up, it turns the buckets on without the exit-time report.
    if (traced)
        setenv("CABA_PROF", "perfbench", 1);
    std::array<caba::prof::Bucket, caba::prof::kBuckets> before{};
    const double t0 = nowS();
    {
        caba::Workload wl(cell.app, scale, seed);
        caba::GpuConfig cfg;
        cfg.bw_scale = cell.bw_scale;
        cfg.verify_data = false;
        cfg.partition.md_size_bytes = kMdCacheBytes;
        cfg.audit.fatal = false;
        // Section 3.2.2: assist-warp registers join the per-block need.
        const int assist = cell.design.usesCaba() ? kAssistRegs : 0;
        const int warps = wl.warpsPerSm(assist, cfg.sm.max_warps);
        wl.bindGrid(warps * cfg.num_sms);
        const double t1 = nowS();
        caba::GpuSystem gpu(cfg, cell.design, wl.lineGenerator());
        const double t2 = nowS();
        gpu.launch(&wl, warps);
        if (cell.fault)
            gpu.injectFault(*cell.fault);
        if (traced)
            before = caba::prof::snapshot();
        const double t3 = nowS();
        out.result = gpu.run();
        const double t4 = nowS();
        out.audit_failures = gpu.auditFailures();
        out.spans.build_s = t1 - t0;
        out.spans.construct_s = t2 - t1;
        out.spans.launch_s = t3 - t2;
        out.spans.run_s = t4 - t3;
    }
    out.wall_s = nowS() - t0;
    if (traced) {
        unsetenv("CABA_PROF");
        const auto after = caba::prof::snapshot();
        for (std::size_t i = 0; i < after.size(); ++i) {
            out.spans.prof_ns[i] = after[i].ns - before[i].ns;
            out.spans.prof_calls[i] = after[i].calls - before[i].calls;
        }
    }
    return out;
}

namespace {

/** What the untraced or the traced passes of a sweep measured. */
struct SweepPhase
{
    int passes = 0;
    std::vector<double> cell_s;
    double busy_s = 0.0;            ///< Sum of cell_s.
    std::vector<double> pass_s;     ///< Busy time of each pass.
    std::uint64_t sim_cycles = 0;
    std::uint64_t instructions = 0;
    double bw_util_sum = 0.0;
    caba::StatSet stats;            ///< Every cell of every pass.
    CellSpans spans;                ///< Summed over every cell.
};

std::string
spanRow(const std::string &cell, const CellSpans &s)
{
    const auto sec = [&](Comp c) {
        return 1e-9 * static_cast<double>(s.prof_ns[bucket(c, Phase::Cycle)] +
                                          s.prof_ns[bucket(c, Phase::CatchUp)]);
    };
    std::ostringstream os;
    os << cell << ' ' << s.build_s << ' ' << s.construct_s << ' '
       << s.launch_s << ' ' << s.run_s << ' ' << sec(Comp::Sm) << ' '
       << sec(Comp::XbarReq) + sec(Comp::XbarReply) << ' '
       << sec(Comp::Partition) << ' ' << sec(Comp::Wire) << ' '
       << 1e-9 * static_cast<double>(
                     s.prof_ns[bucket(Comp::Loop, Phase::Jump)])
       << ' ' << 1e-9 * static_cast<double>(unattributedNs(s.prof_ns))
       << '\n';
    return os.str();
}

} // namespace

Report
runSweep(const std::vector<SimCell> &cells, const SweepOptions &opt)
{
    Report rep;
    std::map<std::string, std::uint64_t> first_digest;
    std::vector<CellFigures> figures;

    const auto check = [&](const SimCell &cell, const CellRun &run) {
        const caba::RunResult &r = run.result;
        const std::uint64_t d = digest(r);
        std::string why;
        for (const std::string &f : run.audit_failures)
            why += " audit: " + f + ";";
        if (opt.golden != nullptr) {
            const auto it = opt.golden->find(cell.label());
            if (it == opt.golden->end() || it->second.size() != 3) {
                why += " no golden record;";
            } else {
                const std::vector<std::uint64_t> &g = it->second;
                if (r.instructions != g[1])
                    why += " instructions " + std::to_string(r.instructions) +
                           " != golden " + std::to_string(g[1]) + ";";
                if (opt.pin_all && r.cycles != g[0])
                    why += " cycles " + std::to_string(r.cycles) +
                           " != golden " + std::to_string(g[0]) + ";";
                if (opt.pin_all && d != g[2])
                    why += " stats digest differs from golden;";
            }
        }
        const auto [seen, fresh] = first_digest.emplace(cell.label(), d);
        if (!fresh && seen->second != d)
            why += " result differs from this run's first pass;";
        ++rep.attempted;
        if (!why.empty())
            rep.fail(cell.label() + ":" + why);
    };

    const auto run_phase = [&](bool traced, double budget_s,
                               int min_passes) {
        SweepPhase ph;
        const double start = nowS();
        do {
            const double pass_start = ph.busy_s;
            for (const SimCell &cell : cells) {
                if (opt.cpus != nullptr)
                    opt.cpus->maybePick();
                const CellRun run = runCell(cell, opt.scale, opt.seed, traced);
                check(cell, run);
                ph.cell_s.push_back(run.wall_s);
                ph.busy_s += run.wall_s;
                ph.sim_cycles += run.result.cycles;
                ph.instructions += run.result.instructions;
                ph.bw_util_sum += run.result.bw_utilization;
                ph.stats.merge(run.result.stats);
                ph.spans += run.spans;
                if (figures.size() < cells.size())
                    figures.push_back({cell.app.name, cell.design.name,
                                       run.result.cycles,
                                       run.result.bw_utilization,
                                       run.result.md_hit_rate});
                if (traced && ph.passes == 0)
                    rep.spans += spanRow(cell.label(), run.spans);
            }
            ph.pass_s.push_back(ph.busy_s - pass_start);
            ++ph.passes;
        } while (ph.passes < min_passes || nowS() - start < budget_s);
        return ph;
    };

    const SweepPhase plain =
        run_phase(false, opt.trace ? opt.seconds / 2 : opt.seconds,
                  minPasses(cells.size()));
    rep.e2e = {{"cells_per_s",
                ratio(static_cast<double>(cells.size()), median(plain.pass_s)),
                "cells/s"}};
    rep.layer("cell_s_p50", percentile(plain.cell_s, 0.5).value_or(0.0));
    rep.layer("cell_s_p90", percentile(plain.cell_s, 0.9).value_or(0.0));
    rep.layer("sim_kcycles_per_s",
              ratio(1e-3 * static_cast<double>(plain.sim_cycles),
                    plain.busy_s));
    if (opt.fidelity) {
        const std::array<double, 4> sim = fidelity(figures);
        for (std::size_t i = 0; i < kPaperClaims.size(); ++i) {
            const std::string name = kPaperClaims[i].name;
            rep.layer(name + "_pct", sim[i]);
            rep.layer(name + "_err_pp",
                      errPp(sim[i], kPaperClaims[i].paper_pct));
        }
    }
    if (!opt.trace)
        return rep;

    rep.spans = "cell build_s construct_s launch_s run_s sm_s xbar_s "
                "partition_s wire_s jump_s unattributed_s\n";
    const SweepPhase traced = run_phase(true, opt.seconds / 2, 1);
    const double per_pass = 1.0 / traced.passes;
    const auto &ns = traced.spans.prof_ns;
    const auto &calls = traced.spans.prof_calls;
    const auto ns_of = [&](Comp c, Phase p) {
        return static_cast<double>(ns[bucket(c, p)]);
    };
    const auto sec = [&](Comp c, Phase p) {
        return 1e-9 * ns_of(c, p) * per_pass;
    };
    const auto calls_of = [&](Comp c, Phase p) {
        return static_cast<double>(calls[bucket(c, p)]);
    };
    const caba::StatSet &st = traced.stats;
    const auto stat = [&](const std::string &name) {
        return static_cast<double>(st.get(name));
    };
    const auto hit_rate = [&](const std::string &prefix) {
        const double hits = stat(prefix + "hits");
        return ratio(hits, hits + stat(prefix + "misses"));
    };

    rep.layer("compress.lines_compressed",
              stat("model_lines_compressed") * per_pass);
    rep.layer("compress.memo_evictions",
              stat("model_memo_evictions") * per_pass);
    rep.layer("compress.ratio", ratio(stat("model_uncompressed_bytes"),
                                      stat("model_compressed_bytes")));

    double slots = 0.0;
    for (const auto &[name, value] : st.all())
        if (name.rfind("sm_slot_", 0) == 0 &&
            name != "sm_slot_cycles_accounted")
            slots += static_cast<double>(value);
    rep.layer("sim.sm_cycle_s", sec(Comp::Sm, Phase::Cycle));
    rep.layer("sim.sm_catch_up_s", sec(Comp::Sm, Phase::CatchUp));
    rep.layer("sim.sm_calls", calls_of(Comp::Sm, Phase::Cycle) * per_pass);
    rep.layer("sim.sm_ns_per_call", ratio(ns_of(Comp::Sm, Phase::Cycle),
                                          calls_of(Comp::Sm, Phase::Cycle)));
    rep.layer("sim.cycles",
              static_cast<double>(traced.sim_cycles) * per_pass);
    rep.layer("sim.warp_insts",
              static_cast<double>(traced.instructions) * per_pass);
    rep.layer("sim.slot_issued_frac", ratio(stat("sm_slot_issued"), slots));
    rep.layer("sim.slot_mem_frac",
              ratio(stat("sm_slot_mem_struct") + stat("sm_slot_mem_data"),
                    slots));

    rep.layer("caba.assist_insts",
              stat("sm_assist_instructions") * per_pass);
    rep.layer("caba.awc_triggers", stat("awc_triggers") * per_pass);
    rep.layer("caba.awc_kill_frac",
              ratio(stat("awc_kills"), stat("awc_triggers")));

    const double xbar_ns = ns_of(Comp::XbarReq, Phase::Cycle) +
                           ns_of(Comp::XbarReply, Phase::Cycle);
    const double packets =
        stat("xbar_req_packets") + stat("xbar_reply_packets");
    rep.layer("mem.xbar_cycle_s", 1e-9 * xbar_ns * per_pass);
    rep.layer("mem.xbar_ns_per_packet", ratio(xbar_ns, packets));
    rep.layer("mem.xbar_packets", packets * per_pass);
    const double dram = stat("dram_reads") + stat("dram_writes");
    rep.layer("mem.partition_cycle_s", sec(Comp::Partition, Phase::Cycle));
    rep.layer("mem.partition_catch_up_s",
              sec(Comp::Partition, Phase::CatchUp));
    rep.layer("mem.partition_ns_per_call",
              ratio(ns_of(Comp::Partition, Phase::Cycle),
                    calls_of(Comp::Partition, Phase::Cycle)));
    rep.layer("mem.partition_ns_per_dram_access",
              ratio(ns_of(Comp::Partition, Phase::Cycle) +
                        ns_of(Comp::Partition, Phase::CatchUp),
                    dram));
    rep.layer("mem.l1_hit_rate", hit_rate("l1_"));
    rep.layer("mem.l2_hit_rate", hit_rate("l2_"));
    rep.layer("mem.dram_accesses", dram * per_pass);
    rep.layer("mem.dram_row_hit_rate", hit_rate("dram_row_"));
    rep.layer("mem.dram_bw_util",
              ratio(traced.bw_util_sum,
                    static_cast<double>(traced.cell_s.size())));
    rep.layer("mem.md_hit_rate", hit_rate("md_"));

    rep.layer("gpu.construct_s", traced.spans.construct_s * per_pass);
    rep.layer("gpu.run_s", traced.spans.run_s * per_pass);
    rep.layer("gpu.ns_per_sim_cycle",
              ratio(1e9 * traced.spans.run_s,
                    static_cast<double>(traced.sim_cycles)));
    rep.layer("gpu.wire_s",
              sec(Comp::Wire, Phase::Cycle) + sec(Comp::Wire, Phase::CatchUp));
    rep.layer("gpu.jump_s", sec(Comp::Loop, Phase::Jump));
    rep.layer("gpu.jumps", calls_of(Comp::Loop, Phase::Jump) * per_pass);
    rep.layer("gpu.unattributed_s",
              1e-9 * static_cast<double>(unattributedNs(ns)) * per_pass);
    rep.layer("workloads.build_s", traced.spans.build_s * per_pass);
    rep.layer("trace.overhead_frac",
              ratio(traced.busy_s / traced.passes,
                    plain.busy_s / plain.passes) - 1.0);
    return rep;
}

Golden
recordSweep(const std::vector<SimCell> &cells, double scale,
            std::uint64_t seed)
{
    Golden golden;
    for (const SimCell &cell : cells) {
        const CellRun run = runCell(cell, scale, seed, false);
        golden[cell.label()] = {run.result.cycles, run.result.instructions,
                                digest(run.result)};
    }
    return golden;
}

// ----------------------------------------------------------------- codec

std::size_t
Corpus::totalLines() const
{
    std::size_t n = 0;
    for (const std::vector<std::uint8_t> &app : lines)
        n += app.size() / caba::kLineSize;
    return n;
}

Corpus
makeCorpus(std::uint64_t seed, int lines_per_app)
{
    // Workload places load stream i at (i + 1) << 33.
    const caba::Addr base = caba::Addr{1} << 33;
    Corpus corpus;
    for (const caba::AppDescriptor &app : caba::compressionApps()) {
        const caba::Workload wl(app, kSweepScale, seed);
        const caba::LineGenerator gen = wl.lineGenerator();
        std::vector<std::uint8_t> lines(
            static_cast<std::size_t>(lines_per_app) * caba::kLineSize);
        const double t0 = nowS();
        for (std::size_t off = 0; off < lines.size(); off += caba::kLineSize)
            gen(base + off, lines.data() + off);
        corpus.generate_s += nowS() - t0;
        corpus.apps.push_back(app.name);
        corpus.lines.push_back(std::move(lines));
    }
    return corpus;
}

Report
runCodec(const Corpus &corpus, const CodecOptions &opt)
{
    Report rep;
    std::vector<caba::CompressedLine> packed;
    std::vector<std::uint8_t> out;
    // Compressed sizes of the current app, per codec: BestOfAll must
    // match the smallest of the other three on every line.
    std::array<std::vector<int>, 4> sizes;
    // First pass, per codec: {lines, compressed bytes, verbatim lines}.
    std::array<std::vector<std::uint64_t>, 4> totals;
    totals.fill({0, 0, 0});
    std::vector<double> cell_s, pass_s;
    std::array<double, 4> compress_s{}, decompress_s{};
    std::array<std::uint64_t, 4> lines{};
    if (opt.trace)
        rep.spans = "cell compress_s decompress_s\n";

    const int min_passes = minPasses(corpus.apps.size() * kCodecs.size());
    const double start = nowS();
    do {
        const bool first_pass = pass_s.empty();
        double pass_busy_s = 0.0;
        for (std::size_t a = 0; a < corpus.apps.size(); ++a) {
            const std::uint8_t *in = corpus.lines[a].data();
            const std::size_t bytes = corpus.lines[a].size();
            const std::size_t n = bytes / caba::kLineSize;
            packed.resize(n);
            out.resize(bytes);
            for (std::size_t k = 0; k < kCodecs.size(); ++k) {
                if (opt.cpus != nullptr)
                    opt.cpus->maybePick();
                const caba::Codec &codec = caba::getCodec(kCodecs[k]);
                const double t0 = nowS();
                for (std::size_t i = 0; i < n; ++i)
                    packed[i] = codec.compress(in + i * caba::kLineSize);
                const double t1 = nowS();
                for (std::size_t i = 0; i < n; ++i)
                    codec.decompress(packed[i],
                                     out.data() + i * caba::kLineSize);
                const double t2 = nowS();
                cell_s.push_back(t2 - t0);
                pass_busy_s += t2 - t0;
                compress_s[k] += t1 - t0;
                decompress_s[k] += t2 - t1;
                lines[k] += n;

                std::uint64_t bad = 0;
                sizes[k].resize(n);
                for (std::size_t i = 0; i < n; ++i) {
                    const int size = packed[i].size();
                    sizes[k][i] = size;
                    const bool best_ok =
                        kCodecs[k] != caba::Algorithm::BestOfAll ||
                        size == std::min({sizes[0][i], sizes[1][i],
                                          sizes[2][i]});
                    if (size < 1 || size > caba::kLineSize || !best_ok ||
                        std::memcmp(in + i * caba::kLineSize,
                                    out.data() + i * caba::kLineSize,
                                    caba::kLineSize) != 0)
                        ++bad;
                    if (first_pass) {
                        totals[k][1] += static_cast<std::uint64_t>(size);
                        totals[k][2] += packed[i].isUncompressed();
                    }
                }
                if (first_pass)
                    totals[k][0] += n;
                rep.attempted += n;
                if (bad > 0)
                    rep.fail(corpus.apps[a] + "/" + kCodecKeys[k] + ": " +
                                 std::to_string(bad) +
                                 " lines did not round-trip, or "
                                 "BestOfAll missed the smallest",
                             bad);
                if (opt.trace && first_pass) {
                    std::ostringstream row;
                    row << corpus.apps[a] << '/' << kCodecKeys[k] << ' '
                        << t1 - t0 << ' ' << t2 - t1 << '\n';
                    rep.spans += row.str();
                }
            }
        }
        if (first_pass && opt.golden != nullptr) {
            for (std::size_t k = 0; k < kCodecs.size(); ++k) {
                const auto it = opt.golden->find(kCodecKeys[k]);
                if (it == opt.golden->end() || it->second != totals[k])
                    rep.fail(std::string(kCodecKeys[k]) +
                                 ": {lines, compressed bytes, verbatim "
                                 "lines} differ from golden",
                             totals[k][0]);
            }
        }
        pass_s.push_back(pass_busy_s);
    } while (static_cast<int>(pass_s.size()) < min_passes ||
             nowS() - start < opt.seconds);

    double all_lines = 0.0, all_compress_s = 0.0, all_decompress_s = 0.0;
    for (std::size_t k = 0; k < kCodecs.size(); ++k) {
        all_lines += static_cast<double>(lines[k]);
        all_compress_s += compress_s[k];
        all_decompress_s += decompress_s[k];
    }
    const double cells_per_pass =
        static_cast<double>(corpus.apps.size() * kCodecs.size());
    rep.e2e = {{"cells_per_s", ratio(cells_per_pass, median(pass_s)),
                "cells/s"}};
    rep.layer("cell_s_p50", percentile(cell_s, 0.5).value_or(0.0));
    rep.layer("cell_s_p90", percentile(cell_s, 0.9).value_or(0.0));
    rep.layer("compress_lines_per_s", ratio(all_lines, all_compress_s));
    rep.layer("decompress_lines_per_s", ratio(all_lines, all_decompress_s));
    rep.layer("workloads.generate_ns_per_line",
              ratio(1e9 * corpus.generate_s,
                    static_cast<double>(corpus.totalLines())));
    if (!opt.trace)
        return rep;

    // The spans above are all this workload traces: nothing inside the
    // codecs is instrumented, so trace.overhead_frac stays exactly 0.
    for (std::size_t k = 0; k < kCodecs.size(); ++k) {
        const std::string key = std::string("compress.") + kCodecKeys[k];
        const double n = static_cast<double>(lines[k]);
        rep.layer(key + ".compress_ns_per_line",
                  ratio(1e9 * compress_s[k], n));
        rep.layer(key + ".decompress_ns_per_line",
                  ratio(1e9 * decompress_s[k], n));
    }
    return rep;
}

Golden
recordCodec(const Corpus &corpus)
{
    Golden golden;
    for (std::size_t k = 0; k < kCodecs.size(); ++k) {
        const caba::Codec &codec = caba::getCodec(kCodecs[k]);
        std::uint64_t lines = 0, bytes = 0, verbatim = 0;
        for (const std::vector<std::uint8_t> &app : corpus.lines) {
            for (std::size_t off = 0; off < app.size();
                 off += caba::kLineSize) {
                const caba::CompressedLine cl = codec.compress(app.data() + off);
                ++lines;
                bytes += static_cast<std::uint64_t>(cl.size());
                verbatim += cl.isUncompressed();
            }
        }
        golden[kCodecKeys[k]] = {lines, bytes, verbatim};
    }
    return golden;
}

} // namespace perfbench

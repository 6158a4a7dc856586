/**
 * @file
 * caba_sim — command-line front end for the simulator, in the spirit of
 * a GPGPU-Sim run script: pick an app, a design, an algorithm and a few
 * hardware knobs, get the full statistics dump.
 *
 * Usage:
 *   caba_sim [--app NAME] [--design base|hw-mem|hw|caba|ideal]
 *            [--algo bdi|fpc|cpack|best] [--bw SCALE] [--scale F]
 *            [--md-kb N] [--l1-tags N] [--l2-tags N]
 *            [--verify] [--memoize] [--prefetch] [--stats] [--list]
 *
 * Numeric values parse strictly (common/parse.h): a malformed or
 * out-of-range value, like an unknown app, design or algorithm, prints
 * usage naming the flag and exits 1.
 */
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/parse.h"
#include "common/table.h"
#include "harness/runner.h"

using namespace caba;

namespace {

[[noreturn]] void
usage(const std::string &error = "")
{
    if (!error.empty())
        std::fprintf(stderr, "caba_sim: %s\n", error.c_str());
    std::printf(
        "usage: caba_sim [options]\n"
        "  --app NAME      application (default PVC); --list to see all\n"
        "  --design D      base | hw-mem | hw | caba | ideal\n"
        "  --algo A        bdi | fpc | cpack | best (default bdi)\n"
        "  --bw F          off-chip bandwidth scale (default 1.0)\n"
        "  --scale F       loop-trip multiplier (default 1.0)\n"
        "  --md-kb N       MD cache capacity in KB (default 8)\n"
        "  --l1-tags N     L1 compressed-cache tag factor, 1-16 "
        "(default 1)\n"
        "  --l2-tags N     L2 compressed-cache tag factor, 1-16 "
        "(default 1)\n"
        "  --verify        round-trip-check every compressed line\n"
        "  --memoize       enable Section 7.1 memoization assist warps\n"
        "  --prefetch      enable Section 7.2 prefetch assist warps\n"
        "  --stats         dump every raw counter\n"
        "  --list          list the application pool and exit\n");
    std::exit(1);
}

Algorithm
parseAlgo(const std::string &s)
{
    if (s == "bdi") return Algorithm::Bdi;
    if (s == "fpc") return Algorithm::Fpc;
    if (s == "cpack") return Algorithm::CPack;
    if (s == "best") return Algorithm::BestOfAll;
    usage("unknown --algo '" + s + "'");
}

/** Value of numeric flag @p flag: a finite positive real. */
double
realFlag(const std::string &flag, const std::string &v)
{
    double d = 0.0;
    if (!parse::finitePositiveReal(v, &d))
        usage(flag + " needs a finite positive number, got '" + v + "'");
    return d;
}

/** Value of numeric flag @p flag: an integer in [@p min, @p max]. */
int
intFlag(const std::string &flag, const std::string &v, long min, long max)
{
    long n = 0;
    if (!parse::boundedInt(v, min, max, &n))
        usage(flag + " needs an integer in [" + std::to_string(min) + ", " +
              std::to_string(max) + "], got '" + v + "'");
    return static_cast<int>(n);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app_name = "PVC";
    std::string design_name = "caba";
    Algorithm algo = Algorithm::Bdi;
    ExperimentOptions opts;
    int l1_tags = 1, l2_tags = 1;
    bool dump_stats = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--app") app_name = next();
        else if (arg == "--design") design_name = next();
        else if (arg == "--algo") algo = parseAlgo(next());
        else if (arg == "--bw") opts.bw_scale = realFlag(arg, next());
        else if (arg == "--scale") opts.scale = realFlag(arg, next());
        else if (arg == "--md-kb")
            opts.md_cache_kb = intFlag(arg, next(), 1, INT_MAX / 1024);
        else if (arg == "--l1-tags") l1_tags = intFlag(arg, next(), 1, 16);
        else if (arg == "--l2-tags") l2_tags = intFlag(arg, next(), 1, 16);
        else if (arg == "--verify") opts.verify = true;
        else if (arg == "--memoize") opts.extras.memoize = true;
        else if (arg == "--prefetch") opts.extras.prefetch = true;
        else if (arg == "--stats") dump_stats = true;
        else if (arg == "--list") {
            Table t({"app", "suite", "bound", "in Fig1", "in study"});
            for (const AppDescriptor &a : allApps()) {
                t.addRow({a.name, a.suite,
                          a.memory_bound ? "memory" : "compute",
                          a.in_fig1 ? "yes" : "no",
                          a.in_compression ? "yes" : "no"});
            }
            std::printf("%s", t.render().c_str());
            return 0;
        } else {
            usage("unknown flag '" + arg + "'");
        }
    }

    DesignConfig design;
    if (design_name == "base") design = DesignConfig::base();
    else if (design_name == "hw-mem") design = DesignConfig::hwMem(algo);
    else if (design_name == "hw") design = DesignConfig::hw(algo);
    else if (design_name == "caba") design = DesignConfig::caba(algo);
    else if (design_name == "ideal") design = DesignConfig::ideal(algo);
    else usage("unknown --design '" + design_name + "'");
    design.l1_tag_factor = l1_tags;
    design.l2_tag_factor = l2_tags;

    bool known_app = false;
    for (const AppDescriptor &a : allApps())
        known_app = known_app || a.name == app_name;
    if (!known_app)
        usage("unknown --app '" + app_name + "' (--list to see all)");
    const AppDescriptor &app = findApp(app_name);

    printSystemConfig(opts);
    std::printf("Running %s under %s...\n\n", app.name.c_str(),
                design.name.c_str());
    const RunResult r = runApp(app, design, opts);

    Table t({"metric", "value"});
    t.addRow({"cycles", std::to_string(r.cycles)});
    t.addRow({"instructions", std::to_string(r.instructions)});
    t.addRow({"IPC", Table::num(r.ipc)});
    t.addRow({"DRAM BW utilization", Table::pct(r.bw_utilization)});
    t.addRow({"compression ratio", Table::num(r.compression_ratio)});
    t.addRow({"MD cache hit rate", Table::pct(r.md_hit_rate)});
    t.addRow({"energy (mJ)", Table::num(r.energy.total)});
    t.addRow({"avg power (W)", Table::num(r.energy.watts(r.cycles))});
    // Figure 1's five bars, as shares of all accounted issue slots.
    const SlotShares s = slotShares(r);
    t.addRow({"active slots", Table::pct(s.active)});
    t.addRow({"memory stall slots", Table::pct(s.memory)});
    t.addRow({"compute stall slots", Table::pct(s.compute)});
    t.addRow({"data-dep stall slots", Table::pct(s.data)});
    t.addRow({"idle slots", Table::pct(s.idle)});
    std::printf("%s", t.render().c_str());

    if (dump_stats) {
        std::printf("\nRaw counters:\n");
        for (const auto &[k, v] : r.stats.all())
            std::printf("  %-42s %llu\n", k.c_str(),
                        static_cast<unsigned long long>(v));
    }
    return 0;
}

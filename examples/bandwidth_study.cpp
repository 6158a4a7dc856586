/**
 * @file
 * Bandwidth study: pick an application (default PVC) and sweep it over
 * the five designs at three off-chip bandwidths, printing the speedup
 * matrix — a miniature of Figures 7 and 12 for one app.
 *
 * Usage: ./bandwidth_study [app-name]
 *
 * An unknown app name prints usage naming it and exits 1.
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/table.h"
#include "harness/runner.h"

using namespace caba;

namespace {

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr, "bandwidth_study: %s\n", error.c_str());
    std::printf("usage: bandwidth_study [app-name]\n"
                "  app-name  application (default PVC); caba_cli --list "
                "shows all\n");
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 2)
        usage("too many arguments");
    const std::string name = argc > 1 ? argv[1] : "PVC";
    bool known = false;
    for (const AppDescriptor &a : allApps())
        known = known || a.name == name;
    if (!known)
        usage("unknown app-name '" + name + "'");
    const AppDescriptor &app = findApp(name);

    ExperimentOptions opts;
    printSystemConfig(opts);
    std::printf("Bandwidth study for %s (%s)\n\n", app.name.c_str(),
                app.memory_bound ? "memory-bound" : "compute-bound");

    const DesignConfig designs[] = {
        DesignConfig::base(), DesignConfig::hwMem(), DesignConfig::hw(),
        DesignConfig::caba(), DesignConfig::ideal()};
    const double bw[] = {0.5, 1.0, 2.0};

    // Baseline: 1x Base.
    ExperimentOptions base_opts = opts;
    const RunResult base = runApp(app, DesignConfig::base(), base_opts);

    Table t({"design", "0.5x BW", "1x BW", "2x BW"});
    for (const DesignConfig &d : designs) {
        std::vector<std::string> row = {d.name};
        for (double b : bw) {
            ExperimentOptions o = opts;
            o.bw_scale = b;
            const RunResult r = runApp(app, d, o);
            row.push_back(Table::num(static_cast<double>(base.cycles) /
                                     static_cast<double>(r.cycles)));
        }
        t.addRow(row);
    }
    std::printf("%s\n(speedup over 1x-bandwidth Base)\n", t.render().c_str());
    return 0;
}

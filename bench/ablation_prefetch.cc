/**
 * @file
 * Section 7.2 use case: stride prefetching via assist warps deployed at
 * low priority (idle memory-pipeline slots only), four lines ahead of
 * the demand stream. Latency-sensitive streaming apps gain; saturated
 * bandwidth-bound apps should not regress because the throttle defers
 * prefetch warps.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.h"
#include "harness/experiment.h"

using namespace caba;

CABA_REGISTER_EXPERIMENT(ablation_prefetch)
{
    exp.description =
        "Section 7.2: low-priority stride-prefetch assist warps";
    exp.title = "CABA stride prefetching (Section 7.2)";
    exp.cells = [](const ExperimentOptions &opts) {
        ExperimentOptions o = opts;
        o.extras.prefetch = true;
        std::vector<Cell> cells;
        for (const char *name : {"hs", "bp", "lc", "CONS", "LPS", "PVC"}) {
            const AppDescriptor &app = findApp(name);
            cells.push_back({app, "Base", DesignConfig::base(), opts});
            cells.push_back({app, "Base+prefetch", DesignConfig::base(), o});
        }
        return cells;
    };
    exp.emit = [](const Sweep &sweep, BenchJson &) {
        Table t({"app", "bound", "speedup", "prefetches", "dropped",
                 "L1 hit rate delta"});
        auto l1_rate = [](const RunResult &r) {
            const double h = static_cast<double>(r.stats.get("l1_hits"));
            const double m = static_cast<double>(r.stats.get("l1_misses"));
            return h + m > 0 ? h / (h + m) : 0.0;
        };
        for (const std::string &name : sweep.appNames()) {
            const RunResult &base = sweep.at(name, "Base");
            const RunResult &pf = sweep.at(name, "Base+prefetch");
            t.addRow({name, findApp(name).memory_bound ? "Mem" : "Comp",
                      Table::num(static_cast<double>(base.cycles) /
                                 static_cast<double>(pf.cycles)),
                      std::to_string(pf.stats.get("sm_prefetches_issued")),
                      std::to_string(pf.stats.get("sm_prefetches_dropped")),
                      Table::pct(l1_rate(pf) - l1_rate(base))});
        }
        std::printf("%s\n", t.render().c_str());
        std::printf("Prefetch warps use idle slots only (Section 7.2 point "
                    "3), so bandwidth-saturated\napps are protected by the "
                    "utilization throttle.\n");
    };
}

/**
 * @file
 * Section 7.1 use case: memoization via assist warps. SFU-heavy
 * applications with redundant inputs (dmr, NN, mc) cache transcendental
 * results in a shared-memory LUT maintained by low-priority assist
 * warps; hits complete at shared-memory latency instead of occupying
 * the SFU pipeline.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.h"
#include "harness/experiment.h"

using namespace caba;

CABA_REGISTER_EXPERIMENT(ablation_memoization)
{
    exp.description =
        "Section 7.1: memoization assist warps on SFU-heavy apps";
    exp.title = "CABA memoization (Section 7.1) on SFU-heavy apps";
    exp.cells = [](const ExperimentOptions &opts) {
        std::vector<Cell> cells;
        for (const char *name : {"dmr", "NN", "mc", "bh"}) {
            const AppDescriptor &app = findApp(name);
            ExperimentOptions o = opts;
            o.extras.memoize = true;
            cells.push_back({app, "Base", DesignConfig::base(), opts});
            cells.push_back({app, "Base+memoize", DesignConfig::base(), o});
        }
        return cells;
    };
    exp.emit = [](const Sweep &sweep, BenchJson &) {
        Table t({"app", "memo hit rate", "speedup", "SFU issues saved",
                 "assist warps"});
        for (const std::string &name : sweep.appNames()) {
            const RunResult &base = sweep.at(name, "Base");
            const RunResult &memo = sweep.at(name, "Base+memoize");
            t.addRow({name, Table::pct(findApp(name).memo_hit_rate),
                      Table::num(static_cast<double>(base.cycles) /
                                 static_cast<double>(memo.cycles)),
                      std::to_string(memo.stats.get("sm_memo_hits")),
                      std::to_string(memo.stats.get("sm_memoize_warps"))});
        }
        std::printf("%s\n", t.render().c_str());
        std::printf("Compute-bound apps trade SFU pressure for on-chip "
                    "storage (the paper's\n\"convert computation into "
                    "storage\" argument).\n");
    };
}

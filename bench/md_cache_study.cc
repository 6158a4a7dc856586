/**
 * @file
 * Section 4.3.2 study: metadata-cache sizing. The paper states an 8KB
 * 4-way MD cache reaches ~85% average hit rate (>99% for many apps) and
 * avoids a second DRAM access in the common case. This bench sweeps the
 * capacity and reports hit rate plus end performance under CABA-BDI.
 */
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "common/table.h"
#include "harness/experiment.h"

using namespace caba;

const int kSizesKb[] = {2, 4, 8, 16, 32};

CABA_REGISTER_EXPERIMENT(md_cache_study)
{
    exp.description =
        "Section 4.3.2: MD-cache capacity sweep under CABA-BDI";
    exp.title = "MD cache sweep under CABA-BDI (Section 4.3.2)";
    exp.cells = [](const ExperimentOptions &opts) {
        std::vector<Cell> cells;
        for (const char *name : {"PVC", "MM", "LPS", "bfs", "TRA", "sssp"}) {
            for (int kb : kSizesKb) {
                ExperimentOptions o = opts;
                o.md_cache_kb = kb;
                cells.push_back({findApp(name),
                                 "CABA-BDI@" + std::to_string(kb) + "KB",
                                 DesignConfig::caba(), o});
            }
        }
        return cells;
    };
    exp.emit = [](const Sweep &sweep, BenchJson &) {
        Table t({"app", "MD KB", "hit rate", "MD misses", "cycles"});
        std::vector<double> hits_at_8kb;
        for (const std::string &name : sweep.appNames()) {
            // Labels come in declared order, one per MD cache size.
            for (std::size_t k = 0; k < std::size(kSizesKb); ++k) {
                const int kb = kSizesKb[k];
                const RunResult &r = sweep.at(name, sweep.designNames()[k]);
                if (kb == 8)
                    hits_at_8kb.push_back(r.md_hit_rate);
                t.addRow({name, std::to_string(kb),
                          Table::pct(r.md_hit_rate),
                          std::to_string(r.stats.get("part_md_misses")),
                          std::to_string(r.cycles)});
            }
        }
        std::printf("%s\n", t.render().c_str());
        std::printf("8KB 4-way average hit rate: %s (paper: ~85%%)\n",
                    Table::pct(mean(hits_at_8kb)).c_str());
    };
}

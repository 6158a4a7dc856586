/**
 * @file
 * Figure 10: speedup of CABA with different compression algorithms
 * (FPC, BDI, C-Pack) and the idealized per-line BestOfAll selector.
 * Paper findings: +20.7% (FPC), +41.7% (BDI), +35.2% (C-Pack); apps
 * prefer different algorithms, and BestOfAll sometimes beats them all.
 */
#include <cstdio>
#include <vector>

#include "common/table.h"
#include "harness/experiment.h"

using namespace caba;

CABA_REGISTER_EXPERIMENT(fig10_algorithms)
{
    exp.description =
        "Figure 10: CABA speedup per compression algorithm";
    exp.title = "Figure 10: speedup with different algorithms (vs Base)";
    exp.cells = [](const ExperimentOptions &opts) {
        return gridCells(compressionApps(),
                         {DesignConfig::base(),
                          DesignConfig::caba(Algorithm::Fpc),
                          DesignConfig::caba(Algorithm::Bdi),
                          DesignConfig::caba(Algorithm::CPack),
                          DesignConfig::caba(Algorithm::BestOfAll)},
                         opts);
    };
    exp.emit = [](const Sweep &sweep, BenchJson &) {
        const std::vector<std::string> &designs = sweep.designNames();
        Table t({"app", "CABA-FPC", "CABA-BDI", "CABA-C-Pack",
                 "CABA-BestOfAll"});
        std::vector<std::vector<double>> cols(designs.size());
        for (const std::string &app : sweep.appNames()) {
            std::vector<std::string> row = {app};
            for (std::size_t d = 1; d < designs.size(); ++d) {
                const double s = sweep.speedup(app, designs[d], "Base");
                cols[d].push_back(s);
                row.push_back(Table::num(s));
            }
            t.addRow(row);
        }
        std::vector<std::string> gm = {"GeoMean"};
        for (std::size_t d = 1; d < designs.size(); ++d)
            gm.push_back(Table::num(geomean(cols[d])));
        t.addRow(gm);
        std::printf("%s\n", t.render().c_str());

        std::printf("Average improvement (paper: FPC +20.7%%, BDI +41.7%%, "
                    "C-Pack +35.2%%):\n");
        std::printf("  CABA-FPC    %s\n",
                    Table::pct(geomean(cols[1]) - 1.0).c_str());
        std::printf("  CABA-BDI    %s\n",
                    Table::pct(geomean(cols[2]) - 1.0).c_str());
        std::printf("  CABA-C-Pack %s\n",
                    Table::pct(geomean(cols[3]) - 1.0).c_str());
        std::printf("  BestOfAll   %s\n",
                    Table::pct(geomean(cols[4]) - 1.0).c_str());
    };
}

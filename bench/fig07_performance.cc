/**
 * @file
 * Figure 7: performance of the five designs, normalized to Base, over
 * the bandwidth-sensitive application pool. Paper findings: CABA-BDI
 * +41.7% on average (up to 2.6x); within ~2.8% of Ideal-BDI; ~1.6%
 * below HW-BDI; ~9.9% above HW-BDI-Mem.
 */
#include <cstdio>
#include <vector>

#include "common/table.h"
#include "harness/experiment.h"

using namespace caba;

CABA_REGISTER_EXPERIMENT(fig07_performance)
{
    exp.description = "Figure 7: speedup of the five designs over Base";
    exp.title = "Figure 7: normalized performance (speedup over Base)";
    exp.cells = [](const ExperimentOptions &opts) {
        return gridCells(compressionApps(),
                         {DesignConfig::base(), DesignConfig::hwMem(),
                          DesignConfig::hw(), DesignConfig::caba(),
                          DesignConfig::ideal()},
                         opts);
    };
    exp.emit = [](const Sweep &sweep, BenchJson &) {
        const std::vector<std::string> &designs = sweep.designNames();
        Table t({"app", "Base", "HW-BDI-Mem", "HW-BDI", "CABA-BDI",
                 "Ideal-BDI"});
        std::vector<std::vector<double>> cols(designs.size());
        for (const std::string &app : sweep.appNames()) {
            std::vector<std::string> row = {app};
            for (std::size_t d = 0; d < designs.size(); ++d) {
                const double s = sweep.speedup(app, designs[d], "Base");
                cols[d].push_back(s);
                row.push_back(Table::num(s));
            }
            t.addRow(row);
        }
        std::vector<std::string> gm = {"GeoMean"};
        for (std::size_t d = 0; d < designs.size(); ++d)
            gm.push_back(Table::num(geomean(cols[d])));
        t.addRow(gm);
        std::printf("%s\n", t.render().c_str());

        const double caba = geomean(cols[3]);
        std::printf("CABA-BDI average improvement: %s (paper: +41.7%%)\n",
                    Table::pct(caba - 1.0).c_str());
        std::printf("CABA-BDI vs Ideal-BDI: %s below (paper: ~2.8%%)\n",
                    Table::pct(1.0 - caba / geomean(cols[4])).c_str());
        std::printf("CABA-BDI vs HW-BDI:    %s below (paper: ~1.6%%)\n",
                    Table::pct(1.0 - caba / geomean(cols[2])).c_str());
        std::printf("CABA-BDI vs HW-BDI-Mem: %s above (paper: ~9.9%%)\n",
                    Table::pct(caba / geomean(cols[1]) - 1.0).c_str());
    };
}

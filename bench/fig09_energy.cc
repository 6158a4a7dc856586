/**
 * @file
 * Figure 9: normalized energy consumption of the five designs (cores,
 * caches, DRAM, buses, plus compression overheads: MD cache, codec
 * logic, AWS fetches). Paper findings: CABA-BDI reduces energy by up to
 * 22.2%, sits ~3.6% above HW-BDI and ~4.0% above Ideal-BDI, and raises
 * power by ~2.9% over Base.
 */
#include <cstdio>
#include <vector>

#include "common/table.h"
#include "harness/experiment.h"

using namespace caba;

CABA_REGISTER_EXPERIMENT(fig09_energy)
{
    exp.description = "Figure 9: normalized energy of the five designs";
    exp.title = "Figure 9: normalized energy (lower is better)";
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
            const double base = sweep.at(app, "Base").energy.total;
            std::vector<std::string> row = {app};
            for (std::size_t d = 0; d < designs.size(); ++d) {
                const double e =
                    sweep.at(app, designs[d]).energy.total / base;
                cols[d].push_back(e);
                row.push_back(Table::num(e));
            }
            t.addRow(row);
        }
        std::vector<std::string> gm = {"GeoMean"};
        for (std::size_t d = 0; d < designs.size(); ++d)
            gm.push_back(Table::num(geomean(cols[d])));
        t.addRow(gm);
        std::printf("%s\n", t.render().c_str());

        const double caba = geomean(cols[3]);
        std::printf("CABA-BDI energy vs Base: %s (paper: -22.2%%)\n",
                    Table::pct(caba - 1.0).c_str());
        std::printf("CABA-BDI vs HW-BDI:   +%s (paper: +3.6%%)\n",
                    Table::pct(caba / geomean(cols[2]) - 1.0).c_str());
        std::printf("CABA-BDI vs Ideal-BDI: +%s (paper: +4.0%%)\n",
                    Table::pct(caba / geomean(cols[4]) - 1.0).c_str());

        // Power overhead (Section 6.2): energy / time relative to Base.
        std::vector<double> power_ratio;
        for (const std::string &app : sweep.appNames()) {
            const RunResult &b = sweep.at(app, "Base");
            const RunResult &c = sweep.at(app, "CABA-BDI");
            power_ratio.push_back(c.energy.watts(c.cycles) /
                                  b.energy.watts(b.cycles));
        }
        std::printf("CABA-BDI power vs Base: +%s (paper: +2.9%%)\n",
                    Table::pct(geomean(power_ratio) - 1.0).c_str());

        std::printf("\nDRAM energy share under Base (sanity): ");
        const RunResult &pvc = sweep.at(sweep.appNames().front(), "Base");
        std::printf("%s\n",
                    Table::pct(pvc.energy.dram / pvc.energy.total).c_str());
    };
}

/**
 * @file
 * Figure 12: sensitivity to peak off-chip bandwidth — Base and CABA-BDI
 * at 1/2x, 1x and 2x the Table 1 bandwidth. Paper finding: CABA at a
 * given bandwidth often matches the baseline with double the bandwidth.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.h"
#include "harness/experiment.h"

using namespace caba;

CABA_REGISTER_EXPERIMENT(fig12_bw_sensitivity)
{
    exp.description =
        "Figure 12: Base vs CABA at 0.5x/1x/2x off-chip bandwidth";
    exp.title =
        "Figure 12: bandwidth sensitivity (speedup vs 1x-Base)";
    exp.cells = [](const ExperimentOptions &opts) {
        // A representative bandwidth-sensitive subset keeps the 6-point
        // sweep tractable; the shape matches the full pool.
        std::vector<Cell> cells;
        for (const char *n :
             {"CONS", "JPEG", "LPS", "MM", "PVC", "PVR", "SLA", "sssp"}) {
            for (double bw : {0.5, 1.0, 2.0}) {
                ExperimentOptions o = opts;
                o.bw_scale = bw;
                // The label carries the bandwidth point; the designs stay
                // the named ones, so these cells are the same simulations
                // as fig01's and fig07's at equal bandwidth.
                const std::string point = Table::num(bw, 1) + "x-";
                cells.push_back({findApp(n), point + "Base",
                                 DesignConfig::base(), o});
                cells.push_back({findApp(n), point + "CABA",
                                 DesignConfig::caba(), o});
            }
        }
        return cells;
    };
    exp.emit = [](const Sweep &sweep, BenchJson &) {
        const std::vector<std::string> &designs = sweep.designNames();
        Table t({"app", "0.5x-Base", "0.5x-CABA", "1x-Base", "1x-CABA",
                 "2x-Base", "2x-CABA"});
        std::vector<std::vector<double>> cols(designs.size());
        for (const std::string &app : sweep.appNames()) {
            std::vector<std::string> row = {app};
            for (std::size_t d = 0; d < designs.size(); ++d) {
                const double s = sweep.speedup(app, designs[d],
                                               "1.0x-Base");
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

        std::printf("Key comparisons (paper: CABA ~= doubling the off-chip "
                    "bandwidth):\n");
        std::printf("  1x-CABA  vs 2x-Base: %.2f vs %.2f\n",
                    geomean(cols[3]), geomean(cols[4]));
        std::printf("  0.5x-CABA vs 1x-Base: %.2f vs %.2f\n",
                    geomean(cols[1]), geomean(cols[2]));
    };
}

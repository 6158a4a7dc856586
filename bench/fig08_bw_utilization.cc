/**
 * @file
 * Figure 8: DRAM memory bandwidth utilization of the five designs.
 * Paper finding: CABA-based compression reduces average utilization
 * from 53.6% to 35.6%, relieving the bottleneck.
 */
#include <cstdio>
#include <vector>

#include "common/table.h"
#include "harness/experiment.h"

using namespace caba;

CABA_REGISTER_EXPERIMENT(fig08_bw_utilization)
{
    exp.description =
        "Figure 8: DRAM bandwidth utilization of the five designs";
    exp.title = "Figure 8: DRAM bandwidth utilization per design";
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
                const double u = sweep.at(app, designs[d]).bw_utilization;
                cols[d].push_back(u);
                row.push_back(Table::pct(u));
            }
            t.addRow(row);
        }
        std::vector<std::string> avg = {"Average"};
        for (std::size_t d = 0; d < designs.size(); ++d)
            avg.push_back(Table::pct(mean(cols[d])));
        t.addRow(avg);
        std::printf("%s\n", t.render().c_str());
        std::printf("Base -> CABA-BDI average utilization: %s -> %s "
                    "(paper: 53.6%% -> 35.6%%)\n",
                    Table::pct(mean(cols[0])).c_str(),
                    Table::pct(mean(cols[3])).c_str());

        std::printf("\nMD cache hit rate under CABA-BDI "
                    "(paper: ~85%% average):\n");
        std::vector<double> md;
        for (const std::string &app : sweep.appNames())
            md.push_back(sweep.at(app, "CABA-BDI").md_hit_rate);
        std::printf("  average %s\n", Table::pct(mean(md)).c_str());
    };
}

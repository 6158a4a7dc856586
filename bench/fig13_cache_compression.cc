/**
 * @file
 * Figure 13: CABA-BDI with compressed caches — 2x/4x tags in L1 or L2
 * (Section 6.5), normalized to plain CABA-BDI. Paper findings:
 * cache-sensitive apps (bfs, sssp from L1; TRA, KM from L2) gain;
 * L1 compression can hurt latency-sensitive apps (hs, LPS) because
 * every L1 hit pays a decompression.
 */
#include <cstdio>
#include <vector>

#include "common/table.h"
#include "harness/experiment.h"

using namespace caba;

CABA_REGISTER_EXPERIMENT(fig13_cache_compression)
{
    exp.description =
        "Figure 13: CABA with compressed L1/L2 caches (2x/4x tags)";
    exp.title =
        "Figure 13: compressed caches with CABA (speedup vs CABA-BDI)";
    exp.cells = [](const ExperimentOptions &opts) {
        // Cache-sensitive apps plus latency-sensitive controls (the apps
        // the paper's Figure 13 discussion names).
        std::vector<AppDescriptor> apps;
        for (const char *n : {"bfs", "sssp", "TRA", "KM", "RAY", "hs",
                              "LPS", "nw", "PVC", "MM"})
            apps.push_back(findApp(n));
        return gridCells(apps,
                         {DesignConfig::caba(),
                          DesignConfig::cabaCompressedCache(2, 1),
                          DesignConfig::cabaCompressedCache(4, 1),
                          DesignConfig::cabaCompressedCache(1, 2),
                          DesignConfig::cabaCompressedCache(1, 4)},
                         opts);
    };
    exp.emit = [](const Sweep &sweep, BenchJson &) {
        const std::vector<std::string> &designs = sweep.designNames();
        Table t({"app", "CABA-L1-2x", "CABA-L1-4x", "CABA-L2-2x",
                 "CABA-L2-4x", "L1 hit rate (CABA)"});
        std::vector<std::vector<double>> cols(designs.size());
        for (const std::string &app : sweep.appNames()) {
            std::vector<std::string> row = {app};
            for (std::size_t d = 1; d < designs.size(); ++d) {
                const double s =
                    sweep.speedup(app, designs[d], "CABA-BDI");
                cols[d].push_back(s);
                row.push_back(Table::num(s));
            }
            const RunResult &c = sweep.at(app, "CABA-BDI");
            const double hits = static_cast<double>(c.stats.get("l1_hits"));
            const double misses =
                static_cast<double>(c.stats.get("l1_misses"));
            row.push_back(Table::pct(
                hits + misses > 0 ? hits / (hits + misses) : 0.0));
            t.addRow(row);
        }
        std::vector<std::string> gm = {"GeoMean"};
        for (std::size_t d = 1; d < designs.size(); ++d)
            gm.push_back(Table::num(geomean(cols[d])));
        gm.push_back("");
        t.addRow(gm);
        std::printf("%s\n", t.render().c_str());
        std::printf("Paper: cache-sensitive apps (e.g. bfs, sssp with L1; "
                    "TRA, KM with L2) gain; L1\ncompression can degrade "
                    "hit-latency-sensitive apps since each L1 hit "
                    "decompresses.\n");
    };
}

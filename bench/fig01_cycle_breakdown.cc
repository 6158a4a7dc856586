/**
 * @file
 * Figure 1: breakdown of total issue cycles (Compute Stalls, Memory
 * Stalls, Data Dependence Stalls, Idle Cycles, Active Cycles) for the
 * 27-application pool on the baseline GPU at 1/2x, 1x and 2x off-chip
 * bandwidth. Paper finding: 17/27 apps are memory-bound, and for them
 * Memory + Data Dependence stalls are ~61% of issue cycles at 1x BW,
 * shrinking at 2x and growing at 1/2x.
 *
 * The shares are exact, not estimated: every issue slot of every
 * accounted cycle is charged to exactly one sm_slot_* category by the
 * scheduler (DESIGN.md section 11), and the audit layer proves the
 * categories sum to cycles x issue slots on every run. slotShares
 * (harness/runner.h) groups the nine categories into the five bars.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.h"
#include "harness/experiment.h"

using namespace caba;

CABA_REGISTER_EXPERIMENT(fig01_cycle_breakdown)
{
    exp.description =
        "Figure 1: issue-cycle breakdown at 0.5x/1x/2x bandwidth";
    exp.body = [](const ExperimentOptions &opts, BenchJson &json) {
        printSystemConfig(opts);
        std::printf(
            "Figure 1: issue-cycle breakdown on the Base design\n\n");

        const double bw_points[] = {0.5, 1.0, 2.0};
        Table t({"app", "bound", "BW", "compute", "memory", "data-dep",
                 "idle", "active"});

        struct Avg { double mem = 0, data = 0; int n = 0; };
        std::vector<Avg> avg_mem_bound(3);

        for (const AppDescriptor &app : fig1Apps()) {
            for (int b = 0; b < 3; ++b) {
                ExperimentOptions o = opts;
                o.bw_scale = bw_points[b];
                const RunResult r = runApp(app, DesignConfig::base(), o);
                // Bake the bandwidth point into the cell's design name so
                // the three runs per app stay distinguishable in the JSON.
                json.addCell(app.name,
                             "Base@" + Table::num(bw_points[b], 1) + "x",
                             r);
                const SlotShares s = slotShares(r);
                t.addRow({app.name, app.memory_bound ? "Mem" : "Comp",
                          Table::num(bw_points[b], 1) + "x",
                          Table::pct(s.compute), Table::pct(s.memory),
                          Table::pct(s.data), Table::pct(s.idle),
                          Table::pct(s.active)});
                if (app.memory_bound) {
                    avg_mem_bound[b].mem += s.memory;
                    avg_mem_bound[b].data += s.data;
                    ++avg_mem_bound[b].n;
                }
            }
        }
        std::printf("%s\n", t.render().c_str());

        std::printf("Memory-bound apps, Memory + Data-Dependence stall "
                    "share (paper: ~61%% at 1x, lower at 2x, higher at "
                    "1/2x):\n");
        for (int b = 0; b < 3; ++b) {
            const Avg &a = avg_mem_bound[b];
            std::printf("  %.1fx BW: %s\n", bw_points[b],
                        Table::pct((a.mem + a.data) / a.n).c_str());
        }
    };
}

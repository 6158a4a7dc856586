/**
 * @file
 * Figure 2: fraction of statically unallocated registers per
 * application, for a 128KB register file per SM with 1536-thread /
 * 8-block occupancy limits. Paper finding: on average ~24% of the
 * register file is never allocated — the pool CABA's assist warps live
 * in (Section 3.2.2).
 */
#include <cstdio>
#include <vector>

#include "common/table.h"
#include "harness/experiment.h"

using namespace caba;

CABA_REGISTER_EXPERIMENT(fig02_unallocated_regs)
{
    exp.description =
        "Figure 2: statically unallocated register fraction per app";
    exp.title = "Figure 2: statically unallocated register fraction\n"
                "(128KB RF/SM, 1536 threads, 8 blocks max)";
    exp.emit = [](const Sweep &, BenchJson &json) {
        Table t({"app", "regs/thread", "threads/block", "blocks/SM",
                 "warps/SM", "unallocated", "assist fits free?"});
        std::vector<double> fracs;
        for (const AppDescriptor &app : allApps()) {
            Workload wl(app);
            const OccupancyResult occ = wl.occupancy(0);
            const OccupancyResult with_assist =
                wl.occupancy(kAssistRegsPerThread);
            fracs.push_back(occ.unallocated_reg_fraction);
            json.beginRow();
            json.field("app", app.name);
            json.field("regs_per_thread", app.regs_per_thread);
            json.field("threads_per_block", app.threads_per_block);
            json.field("blocks_per_sm", occ.blocks_per_sm);
            json.field("warps_per_sm", occ.warps_per_sm);
            json.field("unallocated_reg_fraction",
                       occ.unallocated_reg_fraction);
            json.field("assist_fits_free",
                       with_assist.assist_fits_free ? "yes" : "no");
            json.endRow();
            t.addRow({app.name, std::to_string(app.regs_per_thread),
                      std::to_string(app.threads_per_block),
                      std::to_string(occ.blocks_per_sm),
                      std::to_string(occ.warps_per_sm),
                      Table::pct(occ.unallocated_reg_fraction),
                      with_assist.assist_fits_free ? "yes" : "no"});
        }
        t.addRow({"Average", "", "", "", "", Table::pct(mean(fracs)), ""});
        std::printf("%s\n", t.render().c_str());
        std::printf("Paper: ~24%% of the register file unallocated on "
                    "average.\nMeasured average: %s\n",
                    Table::pct(mean(fracs)).c_str());
    };
}

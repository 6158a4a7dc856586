#include "harness/sweep.h"

#include <algorithm>
#include <climits>
#include <cstdio>

#include "common/env.h"
#include "common/log.h"
#include "common/prof.h"
#include "common/thread_pool.h"

namespace caba {

std::vector<Cell>
gridCells(const std::vector<AppDescriptor> &apps,
          const std::vector<DesignConfig> &designs,
          const ExperimentOptions &opts)
{
    std::vector<Cell> cells;
    cells.reserve(apps.size() * designs.size());
    for (const AppDescriptor &app : apps)
        for (const DesignConfig &d : designs)
            cells.push_back({app, d.name, d, opts});
    return cells;
}

bool
sameSimulation(const Cell &a, const Cell &b)
{
    return a.app == b.app && a.design == b.design && a.opts == b.opts;
}

std::vector<RunResult>
runCells(const std::vector<Cell> &cells, int jobs)
{
    if (jobs <= 0)
        jobs = env::intOr("CABA_JOBS", 1, INT_MAX, defaultWorkers());

    // Each cell is a pure function of its own inputs: runApp builds a
    // private Workload + GpuSystem, so cells can run in any order on
    // any thread and still produce bit-identical results.
    std::vector<RunResult> results(cells.size());
    const auto self_before = prof::stageSnapshot();
    {
        ProgressReporter progress("sweep", static_cast<int>(cells.size()));
        parallelFor(static_cast<int>(cells.size()), jobs, [&](int i) {
            const Cell &c = cells[static_cast<std::size_t>(i)];
            results[static_cast<std::size_t>(i)] =
                runApp(c.app, c.design, c.opts);
            progress.tick(c.app.name + " x " + c.label);
        });
    }
    // Wall-clock self-profile of this run (aggregated across workers;
    // stderr only so the deterministic JSON exports stay byte-stable).
    const auto self_after = prof::stageSnapshot();
    for (int s = 0; s < prof::kStages; ++s) {
        const auto i = static_cast<std::size_t>(s);
        const std::int64_t delta = self_after[i] - self_before[i];
        if (delta > 0) {
            std::fprintf(stderr, "  sweep self: %-8s %8.3fs\n",
                         prof::stageName(static_cast<prof::Stage>(s)),
                         static_cast<double>(delta) * 1e-9);
        }
    }
    return results;
}

Sweep::Sweep(const std::vector<Cell> &cells, std::vector<RunResult> results)
{
    CABA_CHECK(results.size() == cells.size(),
               "sweep: one result per cell");
    cells_.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        cells_.push_back(
            {cells[i].app.name, cells[i].label, std::move(results[i])});
        const NamedCell &c = cells_[i];
        if (std::find(app_names_.begin(), app_names_.end(), c.app) ==
            app_names_.end())
            app_names_.push_back(c.app);
        if (std::find(design_names_.begin(), design_names_.end(),
                      c.design) == design_names_.end())
            design_names_.push_back(c.design);
        const bool inserted =
            index_.emplace(std::make_pair(c.app, c.design), i).second;
        CABA_CHECK(inserted, "sweep: duplicate (app, design) cell");
    }
}

const RunResult &
Sweep::at(const std::string &app, const std::string &design) const
{
    auto it = index_.find({app, design});
    CABA_CHECK(it != index_.end(), "sweep cell missing");
    return cells_[it->second].result;
}

double
Sweep::speedup(const std::string &app, const std::string &design,
               const std::string &base_design) const
{
    const RunResult &base = at(app, base_design);
    if (base.cycles == 0) {
        const std::string msg =
            "sweep: speedup base cell retired zero cycles (app=" + app +
            ", base design=" + base_design + ")";
        CABA_PANIC(msg.c_str());
    }
    return static_cast<double>(base.cycles) /
           static_cast<double>(at(app, design).cycles);
}

} // namespace caba

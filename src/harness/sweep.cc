#include "harness/sweep.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <utility>

#include "common/env.h"
#include "common/log.h"
#include "common/prof.h"
#include "common/thread_pool.h"

namespace caba {

int
sweepJobsFromEnv(int fallback)
{
    return env::intOr("CABA_JOBS", 1, INT_MAX, fallback);
}

Sweep::Sweep(const std::vector<AppDescriptor> &apps,
             const std::vector<DesignConfig> &designs,
             const ExperimentOptions &opts,
             const std::function<ExperimentOptions(
                 const DesignConfig &, const ExperimentOptions &)> &tweak)
{
    for (const DesignConfig &d : designs)
        design_names_.push_back(d.name);
    for (const AppDescriptor &app : apps)
        app_names_.push_back(app.name);

    // Materialize the cell list up front, applying the (caller-supplied,
    // not necessarily thread-safe) tweak hook serially on this thread.
    // Each cell is then a pure function of its own inputs: runApp builds
    // a private Workload + GpuSystem, so cells can run in any order on
    // any thread and still produce bit-identical results.
    struct Cell
    {
        const AppDescriptor *app;
        const DesignConfig *design;
        ExperimentOptions opts;
    };
    std::vector<Cell> cells;
    cells.reserve(apps.size() * designs.size());
    for (const AppDescriptor &app : apps)
        for (const DesignConfig &d : designs)
            cells.push_back({&app, &d, tweak ? tweak(d, opts) : opts});

    const int jobs = opts.jobs > 0
                         ? opts.jobs
                         : sweepJobsFromEnv(ThreadPool::defaultWorkers());

    std::vector<RunResult> results(cells.size());
    const auto self_before = prof::stageSnapshot();
    {
        ProgressReporter progress("sweep", static_cast<int>(cells.size()));
        parallelFor(static_cast<int>(cells.size()), jobs, [&](int i) {
            const Cell &c = cells[static_cast<std::size_t>(i)];
            results[static_cast<std::size_t>(i)] =
                runApp(*c.app, *c.design, c.opts);
            progress.tick(c.app->name + " x " + c.design->name);
        });
    }
    // Wall-clock self-profile of this sweep (aggregated across workers;
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

    // Insert in the original serial (app-major) order so the resulting
    // map is built identically regardless of worker count.
    for (std::size_t i = 0; i < cells.size(); ++i)
        cells_.emplace(std::make_pair(cells[i].app->name,
                                      cells[i].design->name),
                       std::move(results[i]));
}

Sweep::Sweep(std::vector<NamedCell> cells)
{
    for (NamedCell &c : cells) {
        if (std::find(app_names_.begin(), app_names_.end(), c.app) ==
            app_names_.end())
            app_names_.push_back(c.app);
        if (std::find(design_names_.begin(), design_names_.end(),
                      c.design) == design_names_.end())
            design_names_.push_back(c.design);
        const bool inserted =
            cells_.emplace(std::make_pair(c.app, c.design),
                           std::move(c.result))
                .second;
        CABA_CHECK(inserted, "sweep: duplicate (app, design) cell");
    }
}

const RunResult &
Sweep::at(const std::string &app, const std::string &design) const
{
    auto it = cells_.find({app, design});
    CABA_CHECK(it != cells_.end(), "sweep cell missing");
    return it->second;
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

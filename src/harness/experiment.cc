#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>

#include "common/log.h"

namespace caba {

ExperimentRegistry &
ExperimentRegistry::instance()
{
    // Function-local static: registration happens from static
    // initializers in the experiment library, so the registry must not
    // depend on initialization order across translation units.
    static ExperimentRegistry registry;
    return registry;
}

void
ExperimentRegistry::add(Experiment e)
{
    CABA_CHECK(!e.name.empty(), "experiment: empty name");
    CABA_CHECK(static_cast<bool>(e.emit), "experiment: no emit");
    const bool inserted = by_name_.emplace(e.name, std::move(e)).second;
    CABA_CHECK(inserted, "experiment: duplicate registration (names must "
                         "be unique across bench/)");
}

const Experiment *
ExperimentRegistry::find(const std::string &name) const
{
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : &it->second;
}

std::vector<const Experiment *>
ExperimentRegistry::all() const
{
    std::vector<const Experiment *> out;
    out.reserve(by_name_.size());
    for (const auto &[name, e] : by_name_)
        out.push_back(&e);
    return out;
}

RunCounts
runExperiments(const std::vector<const Experiment *> &experiments,
               const ExperimentOptions &opts,
               const std::vector<std::string> &json_paths, int jobs)
{
    CABA_CHECK(json_paths.size() == experiments.size(),
               "experiment: one json path per experiment");

    // The plan: every experiment's declared cells, each mapped to the
    // first identical declaration of the whole run.
    std::vector<std::vector<Cell>> declared;
    std::vector<std::vector<std::size_t>> distinct_index;
    std::vector<Cell> distinct;
    RunCounts counts;
    for (const Experiment *e : experiments) {
        declared.push_back(e->cells ? e->cells(opts) : std::vector<Cell>());
        std::vector<std::size_t> &index = distinct_index.emplace_back();
        for (const Cell &c : declared.back()) {
            const auto same = std::find_if(
                distinct.begin(), distinct.end(),
                [&](const Cell &d) { return sameSimulation(d, c); });
            index.push_back(static_cast<std::size_t>(same - distinct.begin()));
            if (same == distinct.end())
                distinct.push_back(c);
            else
                ++counts.hits;
        }
    }
    counts.simulations = distinct.size();
    const std::vector<RunResult> results = runCells(distinct, jobs);

    const bool framed = experiments.size() > 1;
    for (std::size_t i = 0; i < experiments.size(); ++i) {
        const Experiment &e = *experiments[i];
        if (framed)
            std::printf("=== %s ===\n", e.name.c_str());
        if (!declared[i].empty())
            printSystemConfig(opts);
        std::printf("%s\n\n", e.title.c_str());
        std::vector<RunResult> own;
        own.reserve(declared[i].size());
        for (const std::size_t d : distinct_index[i])
            own.push_back(results[d]);
        const Sweep sweep(declared[i], std::move(own));
        BenchJson json(e.name, json_paths[i]);
        e.emit(sweep, json);
        json.addSweep(sweep);
        json.write();
        if (framed)
            std::printf("\n");
    }
    return counts;
}

namespace detail {

ExperimentRegistrar::ExperimentRegistrar(const char *name,
                                         void (*define)(Experiment &))
{
    Experiment e;
    e.name = name;
    define(e);
    ExperimentRegistry::instance().add(std::move(e));
}

} // namespace detail

} // namespace caba

#include "harness/experiment.h"

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

void
runExperiment(const Experiment &e, const ExperimentOptions &opts,
              const std::string &json_path)
{
    const std::vector<Cell> cells = e.cells ? e.cells(opts)
                                            : std::vector<Cell>();
    if (!cells.empty())
        printSystemConfig(opts);
    std::printf("%s\n\n", e.title.c_str());
    const Sweep sweep = runCells(cells, opts.jobs);
    BenchJson json(e.name, json_path);
    e.emit(sweep, json);
    json.addSweep(sweep);
    json.write();
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

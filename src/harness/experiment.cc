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
    CABA_CHECK(static_cast<bool>(e.emit) != static_cast<bool>(e.body),
               "experiment: exactly one of emit (sweep-shaped) or body "
               "(body-shaped) must be set");
    CABA_CHECK(!e.emit || (e.apps && e.designs),
               "experiment: sweep-shaped experiments need apps and designs");
    const auto [it, inserted] = by_name_.emplace(e.name, std::move(e));
    (void)it;
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
    BenchJson json(e.name, json_path);
    if (e.body) {
        e.body(opts, json);
    } else {
        // The shared prologue/epilogue every sweep-shaped bench used,
        // in the same order: header, title, sweep, tables, JSON cells.
        printSystemConfig(opts);
        std::printf("%s\n\n", e.title.c_str());
        const Sweep sweep(e.apps(), e.designs(), opts, e.tweak);
        e.emit(sweep, json);
        json.addSweep(sweep);
    }
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

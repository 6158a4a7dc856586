/**
 * @file
 * Registry-driven experiments (DESIGN.md §12). Each former bench binary
 * is now a registration unit: a translation unit in the
 * caba_experiments library that defines one Experiment and registers it
 * under a stable name. The caba_bench CLI looks experiments up here,
 * runs any subset, and emits the same per-experiment caba-bench-v1
 * documents the standalone binaries produced, byte for byte.
 *
 * Two shapes:
 *  - sweep-shaped: the experiment declares apps(), designs(), an
 *    optional per-design tweak and an emit() that renders tables and
 *    summaries from the finished Sweep. The driver supplies the shared
 *    boilerplate (system-config header, title, Sweep construction,
 *    JSON cell export) in exactly the order the old main()s used.
 *  - body-shaped: experiments whose output is not one Sweep (the
 *    occupancy study, the per-cell figure 1 loop, the ablations, the
 *    codec microbench) implement body() and drive the BenchJson
 *    themselves.
 *
 * Registration happens from static initializers, so the experiment
 * library must be linked whole (an OBJECT library in CMake): see
 * bench/CMakeLists.txt.
 */
#ifndef CABA_HARNESS_EXPERIMENT_H
#define CABA_HARNESS_EXPERIMENT_H

#include <functional>
#include <string>
#include <vector>

#include "harness/json_export.h"
#include "harness/sweep.h"

namespace caba {

/** One named experiment. Exactly one of emit (sweep-shaped) or body
 *  (body-shaped) must be set. */
struct Experiment
{
    /** Registry key, CLI selector and JSON "bench" field. Snake_case;
     *  uniqueness is enforced at registration (and by caba-lint). */
    std::string name;

    /** One line for `caba_bench --list`. */
    std::string description;

    // ---- sweep-shaped ----

    /** Headline printed after the system config, before the sweep. */
    std::string title;

    std::function<std::vector<AppDescriptor>()> apps;
    std::function<std::vector<DesignConfig>()> designs;

    /** Optional per-design option adjustment (Figure 12 bakes the
     *  bandwidth point into the design identity). */
    std::function<ExperimentOptions(const DesignConfig &,
                                    const ExperimentOptions &)>
        tweak;

    /** Renders tables/summaries from the finished sweep. The driver
     *  appends the sweep's cells to @p json afterwards. */
    std::function<void(const Sweep &, BenchJson &)> emit;

    // ---- body-shaped ----

    /** Free-form experiment: everything the old main() printed and
     *  exported, minus flag parsing and BenchJson construction. */
    std::function<void(const ExperimentOptions &, BenchJson &)> body;
};

/** All registered experiments, addressable by name. */
class ExperimentRegistry
{
  public:
    static ExperimentRegistry &instance();

    /** Registers @p e; panics on a duplicate name or a shapeless
     *  experiment (neither emit nor body). */
    void add(Experiment e);

    /** The experiment registered as @p name, or null. */
    const Experiment *find(const std::string &name) const;

    /** Every experiment, sorted by name (deterministic CLI order). */
    std::vector<const Experiment *> all() const;

  private:
    ExperimentRegistry() = default;
    std::map<std::string, Experiment> by_name_;
};

/**
 * Runs one experiment with @p opts, writing its caba-bench-v1 document
 * to @p json_path ("" = no JSON). Replicates the old binaries' order of
 * operations exactly, so output is byte-identical.
 */
void runExperiment(const Experiment &e, const ExperimentOptions &opts,
                   const std::string &json_path);

namespace detail {

/** Static-initializer hook used by CABA_REGISTER_EXPERIMENT. */
struct ExperimentRegistrar
{
    ExperimentRegistrar(const char *name, void (*define)(Experiment &));
};

} // namespace detail

/**
 * Defines and registers one experiment. Usage:
 *
 *   CABA_REGISTER_EXPERIMENT(fig07_performance)
 *   {
 *       exp.description = "...";
 *       exp.title = "...";
 *       ...
 *   }
 *
 * The identifier doubles as the registry name, so names are valid
 * snake_case identifiers by construction; cross-file uniqueness is
 * checked at registration and statically by caba-lint.
 */
#define CABA_REGISTER_EXPERIMENT(ident)                                     \
    static void caba_define_experiment_##ident(::caba::Experiment &);       \
    static const ::caba::detail::ExperimentRegistrar                        \
        caba_experiment_registrar_##ident{                                  \
            #ident, caba_define_experiment_##ident};                        \
    static void caba_define_experiment_##ident(                             \
        [[maybe_unused]] ::caba::Experiment &exp)

} // namespace caba

#endif // CABA_HARNESS_EXPERIMENT_H

/**
 * @file
 * Registry-driven experiments (DESIGN.md §12). Each experiment is a
 * registration unit: a translation unit in the caba_experiments
 * library that defines one Experiment and registers it under a stable
 * name. The caba_bench CLI looks experiments up here, runs any subset,
 * and emits one caba-bench-v1 document per experiment.
 *
 * Every experiment has one shape. cells(opts) declares its
 * simulations in export order, each an app, its label, a design and
 * its options; an emit() renders tables and rows from the finished
 * cells. The driver, runExperiments, supplies the rest: one run plan
 * that simulates each distinct cell of every selected experiment once,
 * in parallel, then per experiment the Table 1 header (when there are
 * cells), the title, emit and the JSON cell export. Figures 2 and 11
 * declare no cells: their emit computes everything it prints.
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

/** One named experiment. */
struct Experiment
{
    /** Registry key, CLI selector and JSON "bench" field. Snake_case;
     *  uniqueness is enforced at registration (and by caba-lint). */
    std::string name;

    /** One line for `caba_bench --list`. */
    std::string description;

    /** Headline printed before the cells run. */
    std::string title;

    /** The experiment's cells for the run's options, in export order.
     *  Unset = no cells. */
    std::function<std::vector<Cell>(const ExperimentOptions &)> cells;

    /** Renders tables and rows from the finished cells. The driver
     *  appends the cells to @p json afterwards. Required. */
    std::function<void(const Sweep &, BenchJson &)> emit;
};

/** All registered experiments, addressable by name. */
class ExperimentRegistry
{
  public:
    static ExperimentRegistry &instance();

    /** Registers @p e; panics on an empty or duplicate name or a
     *  missing emit. */
    void add(Experiment e);

    /** The experiment registered as @p name, or null. */
    const Experiment *find(const std::string &name) const;

    /** Every experiment, sorted by name (deterministic CLI order). */
    std::vector<const Experiment *> all() const;

  private:
    ExperimentRegistry() = default;
    std::map<std::string, Experiment> by_name_;
};

/** What one run simulated. */
struct RunCounts
{
    std::size_t simulations = 0;  ///< Distinct cells, each simulated once.
    std::size_t hits = 0;  ///< Declared cells an earlier identical one served.
};

/**
 * Runs @p experiments with @p opts as one plan. It asks every
 * experiment for its cells, keeps the first of each group of identical
 * simulations (equal app, design and options; the label is not a
 * simulation input) and runs those once through runCells on @p jobs
 * workers. Then, in the given order, each experiment prints the Table
 * 1 header (when it has cells) and its title, emits from its own cells
 * in declared order and writes its caba-bench-v1 document to the path
 * at the same index of @p json_paths ("" = no JSON). With more than
 * one experiment, each one's output is framed by a "=== name ===" line
 * and a blank line.
 */
RunCounts runExperiments(const std::vector<const Experiment *> &experiments,
                         const ExperimentOptions &opts,
                         const std::vector<std::string> &json_paths,
                         int jobs);

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
 *       exp.cells = [](const ExperimentOptions &opts) { ... };
 *       exp.emit = [](const Sweep &sweep, BenchJson &json) { ... };
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

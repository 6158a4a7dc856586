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
 * cells. The driver supplies the rest: the Table 1 header (when there
 * are cells), the title, the parallel run of every cell through the
 * cell memo, and the JSON cell export. Figures 2 and 11 declare no
 * cells: their emit computes everything it prints.
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

/**
 * Runs one experiment with @p opts, writing its caba-bench-v1 document
 * to @p json_path ("" = no JSON): the Table 1 header when there are
 * cells, the title, every cell (on opts.jobs workers), emit, then the
 * cells in declared order.
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

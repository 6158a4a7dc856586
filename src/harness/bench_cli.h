/**
 * @file
 * Argument parsing for the caba_bench CLI, as a library so it is
 * unit-testable (tests/test_cli.cc).
 *
 * Grammar notes that exist because they were once bugs:
 *  - Bare `--json` NEVER consumes the following token. It used to
 *    swallow the next non-dash argument as an output path, so
 *    `caba_bench --json fig07` ate the experiment name and died with
 *    "no experiments selected" (and `--json fig07 fig08` silently wrote
 *    fig08's document to a file named "fig07"). An explicit path is
 *    spelled `--json=PATH` only.
 *  - `--scale` requires a finite positive value: strtod parses
 *    "nan"/"inf" and a NaN defeats the old `<= 0` rejection.
 *  - `--jobs` is range-checked: strtol saturates huge input to
 *    LONG_MAX, which used to truncate silently through an int cast.
 */
#ifndef CABA_HARNESS_BENCH_CLI_H
#define CABA_HARNESS_BENCH_CLI_H

#include <string>
#include <vector>

#include "harness/runner.h"

namespace caba {

/** Everything a caba_bench command line can say. */
struct BenchCli
{
    enum class Action {
        Run,     ///< Run the selected experiments.
        Help,    ///< -h / --help: print usage, exit 0.
        HelpEnv, ///< --help-env: print the env registry, exit 0.
    };

    Action action = Action::Run;
    bool list = false;          ///< --list
    bool run_all = false;       ///< --all
    bool json_enabled = false;  ///< --json seen (bare or with a path)
    std::string json_path;      ///< From --json=PATH only; "" = default.
    std::vector<std::string> filters;  ///< --filter globs, in order.
    std::vector<std::string> names;    ///< Positional experiment names.
    ExperimentOptions opts;     ///< --scale.
    int jobs = 0;  ///< --jobs: cell workers; 0 = CABA_JOBS, else all cores.
};

/**
 * Parses @p args (argv[1..]) into @p *cli. @return false with a
 * one-line reason in @p *error on a malformed command line; never
 * exits, prints, or touches the environment.
 */
bool parseBenchCli(const std::vector<std::string> &args, BenchCli *cli,
                   std::string *error);

/** Shell-style match of @p s against @p pat ('*' and '?'). */
bool globMatch(const char *pat, const char *s);

/**
 * Resolves @p cli's names / --filter globs / --all against the sorted
 * name list @p available into @p *selected (sorted, deduplicated).
 * @return false with @p *error set on an unknown name, a glob matching
 * nothing, or an empty selection.
 */
bool resolveSelection(const BenchCli &cli,
                      const std::vector<std::string> &available,
                      std::vector<std::string> *selected,
                      std::string *error);

} // namespace caba

#endif // CABA_HARNESS_BENCH_CLI_H

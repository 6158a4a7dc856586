/**
 * @file
 * Unified bench CLI: runs any subset of the registered experiments (the
 * former standalone bench binaries) with one flag grammar. Each
 * experiment still emits its own caba-bench-v1 document, byte-identical
 * to the standalone binary's output.
 *
 * Parsing lives in harness/bench_cli.h (shared with the tests); this
 * file is only the glue: usage text, selection against the registry,
 * and one call of the driver (runExperiments in harness/experiment.h).
 * Unlike the old binaries — which silently ignored unrecognized argv
 * tokens — every unknown flag is a hard error with usage on stderr.
 *
 * The selected experiments run as one plan: a cell that several of
 * them declare with the same app, design and options (Figures 7/8/9
 * run the same sweep) is simulated once.
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/output_file.h"
#include "harness/bench_cli.h"
#include "harness/experiment.h"

namespace {

using namespace caba;

void
usage(std::FILE *out)
{
    std::fprintf(out,
        "usage: caba_bench [options] [experiment...]\n"
        "\n"
        "Runs registered experiments (former standalone bench binaries).\n"
        "Experiments are selected by exact name, --filter glob, or "
        "--all.\n"
        "\n"
        "options:\n"
        "  --list           list experiments (name, description) and "
        "exit\n"
        "  --all            run every registered experiment\n"
        "  --filter GLOB    run experiments whose name matches GLOB "
        "(* and ?)\n"
        "  --json           write caba-bench-v1 JSON to the default "
        "path,\n"
        "                   bench_results/<experiment>.json\n"
        "  --json=PATH      write to PATH instead (requires exactly one\n"
        "                   selected experiment); bare --json never "
        "consumes\n"
        "                   the next argument\n"
        "  --scale X        workload loop-trip multiplier, finite and "
        "positive\n"
        "                   (CABA_SCALE stacks on top)\n"
        "  --jobs N         cell worker threads (1 = serial)\n"
        "  --warps N        cap resident warps per SM\n"
        "  --help-env       list environment variables and exit\n"
        "  -h, --help       this help\n");
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "caba_bench: %s\n\n", msg.c_str());
    usage(stderr);
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchCli cli;
    std::string error;
    if (!parseBenchCli(std::vector<std::string>(argv + 1, argv + argc),
                       &cli, &error))
        usageError(error);
    if (cli.action == BenchCli::Action::Help) {
        usage(stdout);
        return 0;
    }
    if (cli.action == BenchCli::Action::HelpEnv) {
        env::printHelp(stdout);
        return 0;
    }

    const ExperimentRegistry &registry = ExperimentRegistry::instance();
    const std::vector<const Experiment *> everything = registry.all();

    if (cli.list) {
        for (const Experiment *e : everything)
            std::printf("%-24s  %s\n", e->name.c_str(),
                        e->description.c_str());
        return 0;
    }

    std::vector<std::string> available;
    for (const Experiment *e : everything)
        available.push_back(e->name);
    std::vector<std::string> selected;
    if (!resolveSelection(cli, available, &selected, &error))
        usageError(error);

    // Each document is written only after its experiment has run, so
    // every path is opened here once: one that cannot be written stops
    // the run before any cell is simulated.
    std::vector<std::string> json_paths(selected.size());
    if (cli.json_enabled) {
        for (std::size_t i = 0; i < selected.size(); ++i) {
            json_paths[i] = cli.json_path.empty()
                                ? "bench_results/" + selected[i] + ".json"
                                : cli.json_path;
            std::FILE *f = openForWriting(json_paths[i]);
            if (f == nullptr) {
                std::fprintf(stderr, "json: cannot write '%s'\n",
                             json_paths[i].c_str());
                return 1;
            }
            std::fclose(f);
        }
    }

    std::vector<const Experiment *> experiments;
    for (const std::string &name : selected)
        experiments.push_back(registry.find(name));
    const RunCounts counts =
        runExperiments(experiments, cli.opts, json_paths, cli.jobs);

    // One machine-greppable summary of the plan (the CI determinism job
    // checks the hit count of a two-experiment run).
    std::fprintf(stderr, "[run-plan] simulations=%zu hits=%zu\n",
                 counts.simulations, counts.hits);
    return 0;
}

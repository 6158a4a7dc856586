/**
 * @file
 * perfbench: runs one workload of the repository benchmark and prints
 * every metric by name and unit. The last line of stdout is the result
 * as one JSON object: the end-to-end metrics, or with --trace 1 the
 * per-layer ones. perfbench/run.py builds this binary and starts it:
 *
 *   perfbench --workload fig07_sweep|compute_sweep|codec_roundtrip
 *             [--seed N] [--seconds S] [--trace 0|1]
 *             [--golden-dir DIR] [--write-golden]
 *
 * --write-golden records the workload's golden outputs at --seed into
 * --golden-dir instead of measuring.
 */
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "compress/registry.h"
#include "perfbench.h"

extern char **environ;

using namespace perfbench;

namespace {

/** Fresh processes whose set-up time is measured; the median counts. */
constexpr int kSetupProbes = 31;

/** The CPU probe, about 5 ms: a CONS cell at this scale, or this many
 *  codec lines. */
constexpr double kProbeScale = 0.005;
constexpr std::size_t kProbeLines = 256;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string golden_dir = "perfbench/golden";
    bool write_golden = false;
    bool setup_probe = false;   ///< Set up, print the time, exit.
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload fig07_sweep|compute_sweep|"
                 "codec_roundtrip [--seed N] [--seconds S] [--trace 0|1] "
                 "[--golden-dir DIR] [--write-golden]\n",
                 why.c_str());
    std::exit(2);
}

bool
parseSeed(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s[0] == '-' || s[0] == '+')
        return false;
    try {
        std::size_t used = 0;
        out = std::stoull(s, &used, 0);
        return used == s.size();
    } catch (const std::exception &) {
        return false;
    }
}

bool
parsePositive(const std::string &s, double &out)
{
    try {
        std::size_t used = 0;
        out = std::stod(s, &used);
        return used == s.size() && std::isfinite(out) && out > 0.0;
    } catch (const std::exception &) {
        return false;
    }
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--write-golden") {
            o.write_golden = true;
            continue;
        }
        if (flag == "--setup-probe") {
            o.setup_probe = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        bool ok = true;
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            ok = parseSeed(v, o.seed);
        } else if (flag == "--seconds") {
            ok = parsePositive(v, o.seconds);
        } else if (flag == "--trace") {
            ok = v == "0" || v == "1";
            o.trace = v == "1";
        } else if (flag == "--golden-dir") {
            o.golden_dir = v;
        } else {
            usage("unknown flag " + flag);
        }
        if (!ok)
            usage("bad value for " + flag + ": " + v);
    }
    if (o.workload != "fig07_sweep" && o.workload != "compute_sweep" &&
        o.workload != "codec_roundtrip")
        usage("unknown or missing --workload");
    return o;
}

/** Everything a run prepares before its first timed call. */
struct Setup
{
    std::vector<SimCell> cells;
    Corpus corpus;
    Golden golden;
};

std::string
goldenPath(const Options &o)
{
    return o.golden_dir + "/" + o.workload + ".txt";
}

Setup
prepare(const Options &o)
{
    Setup s;
    if (o.workload == "codec_roundtrip")
        s.corpus = makeCorpus(o.seed);
    else
        s.cells = o.workload == "fig07_sweep" ? fig07Cells() : computeCells();
    s.golden = readGolden(goldenPath(o));
    return s;
}

/** A few milliseconds of the workload's own kind of work. */
std::function<void()>
cpuProbe(const Options &o, const Setup &s)
{
    if (o.workload == "codec_roundtrip") {
        return [&s] {
            const caba::Codec &codec =
                caba::getCodec(caba::Algorithm::BestOfAll);
            const std::vector<std::uint8_t> &lines = s.corpus.lines.front();
            std::uint8_t line[caba::kLineSize];
            for (std::size_t i = 0; i < kProbeLines; ++i)
                codec.decompress(
                    codec.compress(lines.data() + i * caba::kLineSize), line);
        };
    }
    return [seed = o.seed] {
        static const SimCell cell{caba::findApp("CONS"),
                                  caba::DesignConfig::base(), 1.0,
                                  std::nullopt};
        runCell(cell, kProbeScale, seed, false);
    };
}

/**
 * Process start to first timed call: a fresh copy of this binary (so
 * loading and static initialisation count) sets up exactly as a run
 * does and prints the monotonic time it was ready at.
 */
double
probeSetup(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    std::string probe_flag = "--setup-probe";
    args.push_back(probe_flag.data());
    args.push_back(nullptr);

    int fds[2];
    if (pipe(fds) != 0)
        usage("cannot create a pipe for the set-up probe");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const double start = nowS();
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string text;
    char buf[128];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0)
        text.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    if (rc == 0)
        waitpid(pid, &status, 0);
    double ready = 0.0;
    if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !parsePositive(text.substr(0, text.find('\n')), ready)) {
        std::fprintf(stderr, "perfbench: set-up probe failed\n");
        std::exit(1);
    }
    return ready - start;
}

void
printTable(const char *title, const std::vector<Metric> &metrics,
           bool skip_zero)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        if (!skip_zero || m.value != 0.0)
            std::printf("  %-44s %16.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
}

/** The result line: exactly correct, attempted, failed and metrics. */
void
printResult(const Report &rep, const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += rep.failed == 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(rep.attempted);
    s += ", \"failed\": " + std::to_string(rep.failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        s += (i == 0 ? "\"" : ", \"") + metrics[i].name +
             "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
             "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    if (o.setup_probe) {
        [[maybe_unused]] const Setup s = prepare(o);
        std::printf("%.9f\n", nowS());
        return 0;
    }

    if (o.write_golden) {
        const Setup s = prepare(o);
        char header[160];
        std::snprintf(header, sizeof header,
                      "%s golden at seed %llu, scale %g: %s",
                      o.workload.c_str(),
                      static_cast<unsigned long long>(o.seed), kSweepScale,
                      s.cells.empty()
                          ? "codec lines, compressed bytes, verbatim lines"
                          : "cell cycles, instructions, stats digest");
        const Golden g = s.cells.empty()
                             ? recordCodec(s.corpus)
                             : recordSweep(s.cells, kSweepScale, o.seed);
        if (!writeGolden(goldenPath(o), g, header)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         goldenPath(o).c_str());
            return 1;
        }
        std::fprintf(stderr, "perfbench: wrote %zu records to %s\n",
                     g.size(), goldenPath(o).c_str());
        return 0;
    }

    const Setup s = prepare(o);
    CpuPicker cpus(cpuProbe(o, s));
    cpus.maybePick();   // the set-up probes start on the chosen CPU
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupProbes; ++i)
        setup_s.push_back(probeSetup(argc, argv));
    // The goldens hold the default seed. The instruction counts and all
    // of compute_sweep (Base, regular access) do not depend on the
    // seed, so those are checked at every seed; fig07 cycles and the
    // codec bytes only at the default one.
    const bool golden_seed = o.seed == kDefaultSeed;
    Report rep;
    if (o.workload == "codec_roundtrip") {
        CodecOptions co;
        co.seconds = o.seconds;
        co.trace = o.trace;
        co.golden = golden_seed ? &s.golden : nullptr;
        co.cpus = &cpus;
        rep = runCodec(s.corpus, co);
    } else {
        SweepOptions so;
        so.seed = o.seed;
        so.seconds = o.seconds;
        so.trace = o.trace;
        so.golden = &s.golden;
        so.pin_all = golden_seed || o.workload == "compute_sweep";
        so.fidelity = o.workload == "fig07_sweep";
        so.cpus = &cpus;
        rep = runSweep(s.cells, so);
    }
    std::fprintf(stderr, "perfbench: chose the fastest CPU %d times\n",
                 cpus.picks());
    rep.e2e.push_back({"setup_s", median(setup_s), "s"});
    rep.e2e.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    for (const std::vector<Metric> *ms : {&rep.e2e, &rep.layers})
        for (const Metric &m : *ms)
            if (!std::isfinite(m.value))
                rep.fail("metric " + m.name + " is not finite");

    for (const std::string &f : rep.failures)
        std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
    if (o.trace)
        std::fprintf(stderr, "perfbench: traced spans per cell\n%s",
                     rep.spans.c_str());
    std::printf("perfbench %s seed %llu: %llu attempted, %llu failed "
                "(failed_frac %.6g)\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                        static_cast<double>(rep.attempted)
                                  : 0.0);
    printTable("end to end (untraced):", rep.e2e, false);
    if (o.trace)
        printTable("per layer (traced):", rep.layers, false);
    else
        printTable("also measured untraced:", rep.layers, true);
    printResult(rep, o.trace ? rep.layers : rep.e2e);
    return 0;
}

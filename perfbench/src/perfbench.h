/**
 * @file
 * The repository benchmark's library: the cells of the two simulation
 * sweeps and the codec round-trip corpus, the calls that run them, the
 * checks on every output, and the statistics the report is built from.
 * Timing brackets only calls into the simulator's public entry points
 * (Workload, GpuSystem, getCodec); perfbench/README.md explains every
 * metric and the layer it belongs to.
 */
#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/audit.h"
#include "common/prof.h"
#include "compress/design.h"
#include "gpu/gpu_system.h"
#include "workloads/app.h"

namespace perfbench {

/** caba_bench's workload seed; the golden records are taken at it. */
inline constexpr std::uint64_t kDefaultSeed = 0x5EED;

/** Workload scale of both sweeps (caba_bench --scale). */
inline constexpr double kSweepScale = 0.1;

/** Lines per application in the codec corpus. */
inline constexpr int kCorpusLines = 2048;

/** Samples a percentile needs above its rank before it is reported. */
inline constexpr std::size_t kMinTail = 10;

// ------------------------------------------------------------- statistics

/** Host seconds on the monotonic clock (shared by all processes). */
double nowS();

/** Peak resident set size of this process, in MB. */
double peakRssMb();

double median(std::vector<double> v);

/**
 * Harrell-Davis estimate of the @p q quantile of @p v: a weighted mean
 * of all order statistics, so a sweep of unlike cells does not jump
 * when two neighbours swap rank. nullopt when fewer than @p min_tail
 * samples are expected above it (p90 needs 100 samples).
 */
std::optional<double> percentile(std::vector<double> v, double q,
                                 std::size_t min_tail = kMinTail);

/**
 * Keeps the measuring thread on the allowed CPU where a short probe runs
 * fastest. On a shared host one CPU can run a third slower than the
 * others for minutes at a time (another tenant on its core), and the
 * scheduler has no reason to move an otherwise idle guest's only busy
 * thread off it. Re-probing between cells follows the slow CPU around.
 * Choosing a CPU changes where the next cell runs, nothing else.
 */
class CpuPicker
{
  public:
    /** @p probe is a few milliseconds of the workload's own kind of
     *  work; the CPUs are the ones this thread may run on now. */
    explicit CpuPicker(std::function<void()> probe);

    /** On the first call, and half a second or more after the last
     *  pick, times the probe on every CPU and pins this thread to the
     *  fastest. */
    void maybePick();

    int picks() const { return picks_; }

  private:
    std::function<void()> probe_;
    std::vector<int> cpus_;
    double next_pick_s_ = 0.0;
    int picks_ = 0;
};

/** FNV-1a 64 over cycles, instructions and every stats counter. */
std::uint64_t digest(const caba::RunResult &r);

/** CABA_PROF loop time in no other bucket: loop/cycle minus the rest. */
std::int64_t
unattributedNs(const std::array<std::int64_t, caba::prof::kBuckets> &ns);

// --------------------------------------------------------------- fidelity

/** A published paper figure the fig07 cells are compared against. */
struct PaperClaim
{
    const char *name;       ///< Reported as <name>_pct and <name>_err_pp.
    const char *figure;     ///< Where the paper publishes it.
    double paper_pct;
};

/** The only reference values: the paper's published figures. */
inline constexpr std::array<PaperClaim, 4> kPaperClaims{{
    {"caba_gain", "Fig. 7: CABA-BDI geomean speedup over Base", 41.7},
    {"caba_vs_hwmem", "Fig. 7: CABA-BDI over HW-BDI-Mem", 9.9},
    {"base_dram_util", "Fig. 8: mean Base DRAM bus utilisation", 53.6},
    {"md_hit_rate", "Fig. 8 / Sec. 4.3.2: mean MD-cache hit rate, CABA-BDI",
     85.0},
}};

/** |simulated - paper| in percentage points. */
double errPp(double simulated_pct, double paper_pct);

/** What the fidelity metrics read from one fig07 cell. */
struct CellFigures
{
    std::string app;
    std::string design;
    std::uint64_t cycles = 0;
    double bw_utilization = 0.0;
    double md_hit_rate = 0.0;
};

/** Simulated value of each kPaperClaims entry, in percent. */
std::array<double, 4> fidelity(const std::vector<CellFigures> &cells);

// ---------------------------------------------------------------- golden

/** Label -> recorded values; stored as "label v0 v1 ..." text lines. */
using Golden = std::map<std::string, std::vector<std::uint64_t>>;

/** Reads @p path; a missing file reads as empty. */
Golden readGolden(const std::string &path);

/** @return false when @p path cannot be written. */
bool writeGolden(const std::string &path, const Golden &golden,
                 const std::string &header);

// ---------------------------------------------------------------- report

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Every per-layer metric, in report order, with its unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};
extern const std::vector<MetricDef> kLayerMetrics;

/** One workload run: the result line's fields and metrics. */
struct Report
{
    Report();

    /** Counts @p n failed units (cells or lines), all for @p why. */
    void fail(const std::string &why, std::uint64_t n = 1);

    /** Sets per-layer metric @p name (which must be in kLayerMetrics). */
    void layer(const std::string &name, double value);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  ///< One reason per failure.
    std::vector<Metric> e2e;            ///< From untraced passes.
    std::vector<Metric> layers;         ///< kLayerMetrics order.
    std::string spans;                  ///< Traced: per-cell span table.
};

// ---------------------------------------------------------------- sweeps

/** One simulation cell of a sweep. */
struct SimCell
{
    caba::AppDescriptor app;
    caba::DesignConfig design;
    double bw_scale = 1.0;
    /** Injected after launch: the benchmark's self-test of its checks. */
    std::optional<caba::AuditFault> fault;

    std::string label() const;
};

/** fig07_sweep: compressionApps() x {Base, HW-BDI-Mem, HW-BDI,
 *  CABA-BDI, Ideal-BDI}, the cells Figures 7, 8 and 9 read. */
std::vector<SimCell> fig07Cells();

/** compute_sweep: Figure 1's compute-bound apps with regular access,
 *  on Base at 0.5x, 1x and 2x bandwidth. */
std::vector<SimCell> computeCells();

/** Host time of one cell's calls and its CABA_PROF bucket deltas. */
struct CellSpans
{
    double build_s = 0.0;       ///< Workload(), warpsPerSm, bindGrid.
    double construct_s = 0.0;   ///< GpuSystem constructor.
    double launch_s = 0.0;
    double run_s = 0.0;
    std::array<std::int64_t, caba::prof::kBuckets> prof_ns{};
    std::array<std::uint64_t, caba::prof::kBuckets> prof_calls{};

    CellSpans &operator+=(const CellSpans &o);
};

struct CellRun
{
    caba::RunResult result;
    std::vector<std::string> audit_failures;
    double wall_s = 0.0;    ///< Workload construction through teardown.
    CellSpans spans;        ///< Bucket deltas are zero unless traced.
};

/**
 * Simulates @p cell the way caba_bench does (harness/runner.cc
 * simulateApp, without the cell cache): a fresh Workload and GpuSystem,
 * so the modelled caches start empty. Audits run at the default
 * end-of-run level but are collected instead of fatal. @p traced turns
 * on the CABA_PROF buckets for this cell only.
 */
CellRun runCell(const SimCell &cell, double scale, std::uint64_t seed,
                bool traced);

struct SweepOptions
{
    double scale = kSweepScale;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** {cycles, instructions, digest} per cell; null skips the check.
     *  Instructions do not depend on the seed and are always pinned. */
    const Golden *golden = nullptr;
    /** Also pin cycles and the digest: at the golden's own seed, or on
     *  a sweep whose results do not depend on the seed. */
    bool pin_all = false;
    /** Report the paper-claim metrics (the cells are fig07's). */
    bool fidelity = false;
    /** Consulted before every cell; null leaves the CPU to the OS. */
    CpuPicker *cpus = nullptr;
};

/**
 * Runs whole passes over @p cells, one cell at a time, until
 * opt.seconds have passed and enough cells have run for a p90. With
 * opt.trace, half the time is untraced (the overhead baseline) and half
 * traced.
 */
Report runSweep(const std::vector<SimCell> &cells, const SweepOptions &opt);

/** One untraced pass at @p seed as golden records. */
Golden recordSweep(const std::vector<SimCell> &cells, double scale,
                   std::uint64_t seed);

// ----------------------------------------------------------------- codec

/** The codecs of the round trip, in cell order; BestOfAll last. */
inline constexpr std::array<caba::Algorithm, 4> kCodecs{
    caba::Algorithm::Bdi, caba::Algorithm::Fpc, caba::Algorithm::CPack,
    caba::Algorithm::BestOfAll};

/** Metric-name stem of each kCodecs entry. */
inline constexpr std::array<const char *, 4> kCodecKeys{
    "bdi", "fpc", "cpack", "best_of_all"};

struct Corpus
{
    std::vector<std::string> apps;
    /** Per app: its lines of kLineSize bytes, back to back. */
    std::vector<std::vector<std::uint8_t>> lines;
    double generate_s = 0.0;    ///< Host time in the line generators.

    std::size_t totalLines() const;
};

/** The first @p lines_per_app lines of each compression-pool app's
 *  first load stream, from its Workload::lineGenerator() at @p seed. */
Corpus makeCorpus(std::uint64_t seed, int lines_per_app = kCorpusLines);

struct CodecOptions
{
    double seconds = 10.0;
    bool trace = false;
    /** {lines, compressed bytes, verbatim lines} per codec over the
     *  whole corpus; null skips the check. */
    const Golden *golden = nullptr;
    /** Consulted before every cell; null leaves the CPU to the OS. */
    CpuPicker *cpus = nullptr;
};

/** Compresses, decompresses and compares every corpus line with every
 *  codec, in whole passes, until opt.seconds have passed. Nothing in
 *  the codecs is traced, so opt.trace only adds the per-codec metrics
 *  and spans, from the same passes. */
Report runCodec(const Corpus &corpus, const CodecOptions &opt);

/** One pass over @p corpus as golden records. */
Golden recordCodec(const Corpus &corpus);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H

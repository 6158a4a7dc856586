/**
 * @file
 * Figure 11: compression ratio of each algorithm over each app's data
 * (uncompressed bursts / compressed bursts at DRAM transfer
 * granularity, matching the paper's definition). No timing simulation
 * needed: the ratio is a pure property of the data and the codecs.
 * Paper findings: MM/PVC/PVR compress best with BDI; LPS/JPEG/MUM/nw
 * favor FPC or C-Pack; sc/SCP are incompressible.
 */
#include <cstdio>
#include <vector>

#include "common/table.h"
#include "compress/registry.h"
#include "harness/experiment.h"
#include "workloads/workload.h"

using namespace caba;

namespace {

/** Burst-granular compression ratio over a sample of the app's lines. */
double
ratioFor(const AppDescriptor &app, Algorithm algo, int samples = 4000)
{
    Workload wl(app);
    const LineGenerator gen = wl.lineGenerator();
    const Codec &codec = getCodec(algo);
    std::uint8_t line[kLineSize];
    std::uint64_t total_bursts = 0;
    for (int i = 0; i < samples; ++i) {
        // Sample the footprint the way the app touches it: line i of a
        // linear walk through the first stream's region.
        const Addr addr = (Addr{1} << 33) +
                          static_cast<Addr>(i) * kLineSize;
        gen(addr, line);
        total_bursts += static_cast<std::uint64_t>(
            codec.compress(line).bursts());
    }
    return static_cast<double>(samples) * kBurstsPerLine /
           static_cast<double>(total_bursts);
}

} // namespace

CABA_REGISTER_EXPERIMENT(fig11_compression_ratio)
{
    exp.description =
        "Figure 11: per-algorithm compression ratio of each app's data";
    exp.title = "Figure 11: compression ratio per algorithm "
                "(DRAM bursts, uncompressed/compressed)";
    exp.emit = [](const Sweep &, BenchJson &json) {
        const Algorithm algos[] = {Algorithm::Bdi, Algorithm::Fpc,
                                   Algorithm::CPack, Algorithm::BestOfAll};
        Table t({"app", "BDI", "FPC", "C-Pack", "BestOfAll"});
        std::vector<std::vector<double>> cols(4);
        const char *algo_keys[] = {"bdi", "fpc", "cpack", "best_of_all"};
        for (const AppDescriptor &app : compressionApps()) {
            std::vector<std::string> row = {app.name};
            json.beginRow();
            json.field("app", app.name);
            for (int a = 0; a < 4; ++a) {
                const double r = ratioFor(app, algos[a]);
                cols[static_cast<std::size_t>(a)].push_back(r);
                row.push_back(Table::num(r));
                json.field(algo_keys[a], r);
            }
            json.endRow();
            t.addRow(row);
        }
        std::vector<std::string> gm = {"GeoMean"};
        for (int a = 0; a < 4; ++a)
            gm.push_back(
                Table::num(geomean(cols[static_cast<std::size_t>(a)])));
        t.addRow(gm);
        std::printf("%s\n", t.render().c_str());
        std::printf("Paper: average BDI bandwidth compression ~2.1x; "
                    "BestOfAll >= max(single algorithms) per line.\n");
    };
}

/**
 * @file
 * Compression explorer: run each algorithm over each synthetic data
 * profile and print compressed sizes, burst counts, and the chosen
 * encodings — a direct view of the tradeoffs behind Section 6.3. Also
 * reproduces the paper's Figure 5 walkthrough on a PVC-style line.
 *
 * Usage: ./compression_explorer [lines_per_profile]
 *
 * lines_per_profile is an integer >= 1 (default 2000); anything else
 * prints usage naming the argument and exits 1.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/parse.h"
#include "common/table.h"
#include "compress/bdi.h"
#include "compress/registry.h"
#include "workloads/data_profile.h"

using namespace caba;

namespace {

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr, "compression_explorer: %s\n", error.c_str());
    std::printf("usage: compression_explorer [lines_per_profile]\n"
                "  lines_per_profile  lines per data profile, an integer "
                ">= 1 (default 2000)\n");
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 2)
        usage("too many arguments");
    int samples = 2000;
    if (argc > 1 && !parse::intInRange(argv[1], 1, &samples)) {
        usage(std::string("lines_per_profile needs an integer >= 1, got '") +
              argv[1] + "'");
    }

    std::printf("Per-profile compressed size (bytes, avg over %d lines of "
                "%dB)\n\n", samples, kLineSize);
    const DataProfile profiles[] = {
        DataProfile::Zeros,  DataProfile::Pointer, DataProfile::SmallInt,
        DataProfile::Fp32,   DataProfile::Text,    DataProfile::Sparse,
        DataProfile::Index,  DataProfile::Random};
    const Algorithm algos[] = {Algorithm::Bdi, Algorithm::Fpc,
                               Algorithm::CPack, Algorithm::BestOfAll};

    Table t({"profile", "BDI", "FPC", "C-Pack", "BestOfAll"});
    std::uint8_t line[kLineSize];
    for (DataProfile p : profiles) {
        std::vector<std::string> row = {dataProfileName(p)};
        for (Algorithm a : algos) {
            const Codec &codec = getCodec(a);
            std::uint64_t bytes = 0;
            for (int i = 0; i < samples; ++i) {
                generateProfileLine(p, 7, static_cast<Addr>(i) * kLineSize,
                                    line);
                bytes += static_cast<std::uint64_t>(
                    codec.compress(line).size());
            }
            row.push_back(Table::num(
                static_cast<double>(bytes) / samples, 1));
        }
        t.addRow(row);
    }
    std::printf("%s\n", t.render().c_str());

    // ---- Figure 5 walkthrough ----
    std::printf("Figure 5 walkthrough (PVC-style base+delta line):\n");
    std::uint64_t vals[kLineSize / 8];
    for (int i = 0; i < kLineSize / 8; ++i) {
        vals[i] = (i % 2 == 0)
            ? static_cast<std::uint64_t>(i) * 16
            : 0x80001d000ull + static_cast<std::uint64_t>(i) * 8;
    }
    std::memcpy(line, vals, kLineSize);
    const CompressedLine cl = getCodec(Algorithm::Bdi).compress(line);
    std::printf("  %dB line -> %dB (encoding B8D1=%d actual=%d), "
                "%d DRAM burst(s), saved %d bytes\n",
                kLineSize, cl.size(),
                static_cast<int>(BdiEncoding::B8D1), cl.encoding,
                cl.bursts(), kLineSize - cl.size());

    std::uint8_t out[kLineSize];
    getCodec(Algorithm::Bdi).decompress(cl, out);
    std::printf("  round-trip: %s\n",
                std::memcmp(line, out, kLineSize) == 0 ? "exact" : "BROKEN");
    return 0;
}

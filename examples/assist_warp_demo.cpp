/**
 * @file
 * Assist-warp anatomy: peek inside the CABA machinery. Shows (1) the
 * subroutines the Assist Warp Store synthesizes for each algorithm and
 * encoding (Section 4.1.2), (2) a single-SM simulation with live AWC
 * statistics, and (3) the Section 7 use cases (memoization and
 * prefetching) enabled on one app each.
 */
#include <cstdio>

#include "caba/aws.h"
#include "common/table.h"
#include "compress/bdi.h"
#include "harness/runner.h"
#include "workloads/data_profile.h"

using namespace caba;

int
main()
{
    // ---- 1. What lives in the Assist Warp Store ----
    std::printf("Assist Warp Store contents (SR.ID -> subroutine)\n\n");
    AssistWarpStore aws({6, 20});
    std::uint8_t line[kLineSize];

    Table t({"subroutine", "instructions", "ALU ops", "mem ops"});
    for (Algorithm a : {Algorithm::Bdi, Algorithm::Fpc, Algorithm::CPack}) {
        const Codec &codec = getCodec(a);
        generateProfileLine(DataProfile::SmallInt, 3, 0, line);
        const CompressedLine cl = codec.compress(line);
        const auto &dec = aws.decompressRoutine(a, cl.encoding);
        const auto &cmp = aws.compressRoutine(a);
        auto count = [](const std::vector<AssistInstr> &code, bool mem) {
            int n = 0;
            for (const AssistInstr &i : code)
                n += i.is_mem == mem;
            return n;
        };
        t.addRow({"decompress " + codec.name(),
                  std::to_string(dec.size()),
                  std::to_string(count(dec, false)),
                  std::to_string(count(dec, true))});
        t.addRow({"compress " + codec.name(),
                  std::to_string(cmp.size()),
                  std::to_string(count(cmp, false)),
                  std::to_string(count(cmp, true))});
    }
    const auto &memo = aws.memoizeRoutine();
    const auto &pf = aws.prefetchRoutine();
    t.addRow({"memoize probe", std::to_string(memo.size()), "", ""});
    t.addRow({"stride prefetch", std::to_string(pf.size()), "", ""});
    std::printf("%s\n", t.render().c_str());
    std::printf("AWS footprint: %d subroutines, %d instructions total\n\n",
                aws.numSubroutines(), aws.storedInstructions());

    // ---- 2. AWC behaviour during a CABA-BDI run ----
    ExperimentOptions opts;
    const AppDescriptor &app = findApp("PVC");
    const RunResult r = runApp(app, DesignConfig::caba(), opts);
    std::printf("CABA-BDI on %s: AWC activity\n", app.name.c_str());
    std::printf("  triggers:            %lu (high: %lu, low: %lu)\n",
                (unsigned long)r.stats.get("awc_triggers"),
                (unsigned long)r.stats.get("awc_triggers_high"),
                (unsigned long)r.stats.get("awc_triggers_low"));
    std::printf("  decompression warps: %lu\n",
                (unsigned long)r.stats.get("sm_caba_decompressions"));
    std::printf("  compression warps:   %lu\n",
                (unsigned long)r.stats.get("sm_caba_compressions"));
    std::printf("  assist instructions: %lu (%.1f%% of all issues)\n",
                (unsigned long)r.stats.get("sm_assist_instructions"),
                100.0 * r.stats.get("sm_assist_instructions") /
                    (r.instructions +
                     r.stats.get("sm_assist_instructions")));
    std::printf("  stores compressed:   %lu (buffer overflows: %lu)\n\n",
                (unsigned long)r.stats.get("sm_stores_sent_compressed"),
                (unsigned long)r.stats.get("sm_store_buffer_overflows"));

    // ---- 3. Other uses of the framework (Section 7) ----
    const AppDescriptor &sfu_app = findApp("NN");
    const RunResult plain = runApp(sfu_app, DesignConfig::base(), opts);
    ExperimentOptions memo_opts = opts;
    memo_opts.extras.memoize = true;
    memo_opts.extras.memo_hit_rate = sfu_app.memo_hit_rate;
    const RunResult memod = runApp(sfu_app, DesignConfig::base(), memo_opts);
    std::printf("Memoization on %s: %.2fx speedup (%lu LUT hits)\n",
                sfu_app.name.c_str(),
                static_cast<double>(plain.cycles) /
                    static_cast<double>(memod.cycles),
                (unsigned long)memod.stats.get("sm_memo_hits"));

    const AppDescriptor &pf_app = findApp("hs");
    const RunResult nopf = runApp(pf_app, DesignConfig::base(), opts);
    ExperimentOptions pf_opts = opts;
    pf_opts.extras.prefetch = true;
    const RunResult pfd = runApp(pf_app, DesignConfig::base(), pf_opts);
    std::printf("Prefetching on %s: %.2fx speedup (%lu prefetches)\n",
                pf_app.name.c_str(),
                static_cast<double>(nopf.cycles) /
                    static_cast<double>(pfd.cycles),
                (unsigned long)pfd.stats.get("sm_prefetches_issued"));
    return 0;
}

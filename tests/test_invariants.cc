/**
 * @file
 * System-wide conservation invariants, checked over a sample of the
 * application pool under the paper's main designs (parameterized
 * property tests): every L1 miss produces exactly one fill, every
 * partition reply corresponds to a load, transfer-burst accounting is
 * self-consistent, and the Figure 1 categories exactly partition the
 * issue cycles.
 */
#include <gtest/gtest.h>

#include "harness/runner.h"

namespace caba {
namespace {

class SystemInvariants
    : public ::testing::TestWithParam<std::tuple<const char *, int>>
{
  protected:
    RunResult
    run()
    {
        const auto [app_name, design_id] = GetParam();
        ExperimentOptions o;
        o.scale = 0.5;
        o.verify = true;
        DesignConfig d;
        switch (design_id) {
          case 0: d = DesignConfig::base(); break;
          case 1: d = DesignConfig::hw(); break;
          case 2: d = DesignConfig::caba(); break;
          default: d = DesignConfig::ideal(); break;
        }
        return runApp(findApp(app_name), d, o);
    }
};

TEST_P(SystemInvariants, Hold)
{
    const RunResult r = run();

    // Completion.
    ASSERT_GT(r.cycles, 0u);
    ASSERT_GT(r.instructions, 0u);

    // Every L1 load miss is eventually filled exactly once, except
    // misses that merged onto an already-outstanding MSHR (they share
    // its fill).
    EXPECT_EQ(r.stats.get("sm_fills"),
              r.stats.get("sm_l1_load_misses") -
                  r.stats.get("sm_mshr_merges"));

    // Each fill crossed the partition as exactly one reply.
    EXPECT_EQ(r.stats.get("sm_fills"), r.stats.get("part_replies"));

    // Loads into partitions equal replies (reads are never dropped).
    EXPECT_EQ(r.stats.get("part_replies"), r.stats.get("part_loads_in"));

    // DRAM burst ledger: total = data + overhead (page walks/metadata).
    EXPECT_EQ(r.stats.get("dram_bursts"),
              r.stats.get("dram_data_bursts") +
                  r.stats.get("dram_overhead_bursts"));

    // Compressed designs never move more data bursts than uncompressed
    // equivalents.
    EXPECT_LE(r.stats.get("part_transfer_bursts"),
              r.stats.get("part_transfer_bursts_uncompressed"));

    // Assist warps trigger exactly as often as they complete (none leak).
    EXPECT_EQ(r.stats.get("awc_triggers"),
              r.stats.get("awc_completions") + r.stats.get("awc_kills"));
}

std::string
invariantCaseName(
    const ::testing::TestParamInfo<std::tuple<const char *, int>> &info)
{
    static const char *const designs[] = {"Base", "HW", "CABA", "Ideal"};
    return std::string(std::get<0>(info.param)) + "_" +
           designs[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AppsByDesign, SystemInvariants,
    ::testing::Combine(
        ::testing::Values("PVC", "LPS", "bfs", "hs", "SCP"),
        ::testing::Values(0, 1, 2, 3)),
    invariantCaseName);

} // namespace
} // namespace caba

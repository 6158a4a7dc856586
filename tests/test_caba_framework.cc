/**
 * @file
 * CABA framework unit tests: the Assist Warp Store's subroutine shapes
 * (Section 4.1.2), the Assist Warp Controller's table management,
 * priority/AWB staging rules, kill semantics (Section 3.4), and the
 * utilization throttle.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "caba/awc.h"
#include "caba/aws.h"
#include "compress/registry.h"
#include "workloads/data_profile.h"

namespace caba {
namespace {

AssistWarp
makeWarp(const std::vector<AssistInstr> *code, AssistPriority prio,
         std::uint64_t token = 0)
{
    AssistWarp aw;
    aw.priority = prio;
    aw.purpose = AssistPurpose::DecompressFill;
    aw.code = code;
    aw.token = token;
    return aw;
}

TEST(Aws, SubroutinesAreCachedPerEncoding)
{
    AssistWarpStore aws({6, 20});
    const Codec &bdi = getCodec(Algorithm::Bdi);
    std::uint8_t line[kLineSize];

    generateProfileLine(DataProfile::Pointer, 1, 0, line);
    const CompressedLine a = bdi.compress(line);
    const auto &r1 = aws.decompressRoutine(Algorithm::Bdi, a.encoding);
    const auto &r2 = aws.decompressRoutine(Algorithm::Bdi, a.encoding);
    EXPECT_EQ(&r1, &r2);    // stable storage, one SR.ID
    EXPECT_EQ(aws.numSubroutines(), 1);

    generateProfileLine(DataProfile::Zeros, 1, 0, line);
    const CompressedLine z = bdi.compress(line);
    ASSERT_NE(z.encoding, a.encoding);
    aws.decompressRoutine(Algorithm::Bdi, z.encoding);
    EXPECT_EQ(aws.numSubroutines(), 2);

    // The algorithm is part of the key: the same encoding id under
    // another codec is another subroutine, as is compressing.
    aws.decompressRoutine(Algorithm::Fpc, a.encoding);
    EXPECT_EQ(aws.numSubroutines(), 3);
    aws.compressRoutine(Algorithm::Bdi);
    EXPECT_EQ(aws.numSubroutines(), 4);
    EXPECT_EQ(&aws.decompressRoutine(Algorithm::Bdi, a.encoding), &r1);
}

TEST(Aws, SubroutineShapeMatchesCost)
{
    AssistWarpStore aws({6, 20});
    const Codec &bdi = getCodec(Algorithm::Bdi);
    std::uint8_t line[kLineSize];
    generateProfileLine(DataProfile::Pointer, 1, 0, line);
    const CompressedLine cl = bdi.compress(line);
    const SubroutineCost cost = bdi.decompressCost(cl.encoding);
    const auto &code = aws.decompressRoutine(Algorithm::Bdi, cl.encoding);
    // MOVE + (mem_ops-1) loads + alu_ops + 1 store.
    EXPECT_EQ(static_cast<int>(code.size()),
              1 + cost.alu_ops + cost.mem_ops);
    int mem = 0;
    for (const AssistInstr &i : code)
        mem += i.is_mem;
    EXPECT_EQ(mem, cost.mem_ops);
    // The final store carries the memory latency.
    EXPECT_TRUE(code.back().is_mem);
    EXPECT_EQ(code.back().latency, 20);
}

TEST(Aws, CompressionRoutinesCostMoreForComplexAlgorithms)
{
    AssistWarpStore aws({6, 20});
    const auto &bdi = aws.compressRoutine(Algorithm::Bdi);
    const auto &fpc = aws.compressRoutine(Algorithm::Fpc);
    const auto &cpk = aws.compressRoutine(Algorithm::CPack);
    EXPECT_LT(bdi.size(), fpc.size());
    EXPECT_LE(fpc.size(), cpk.size());
}

TEST(Awc, TriggerTrackReap)
{
    CabaConfig cfg;
    AssistWarpController awc(cfg);
    const std::vector<AssistInstr> code = {{false, 1}, {true, 20}};
    EXPECT_TRUE(awc.trigger(makeWarp(&code, AssistPriority::High)));
    ASSERT_EQ(awc.table().size(), 1u);

    // Simulate issuing both instructions.
    AssistWarp &aw = awc.table()[0];
    aw.ready_at = 5;
    aw.next = 2;

    std::vector<AssistWarp> done;
    awc.reapFinished(4, &done);
    EXPECT_TRUE(done.empty());      // latency not elapsed
    awc.reapFinished(5, &done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_TRUE(awc.table().empty());
    EXPECT_EQ(awc.stats().get("completions"), 1u);
}

TEST(Awc, AwtCapacityRejects)
{
    CabaConfig cfg;
    cfg.awt_entries = 2;
    AssistWarpController awc(cfg);
    const std::vector<AssistInstr> code = {{false, 1}};
    EXPECT_TRUE(awc.trigger(makeWarp(&code, AssistPriority::High)));
    EXPECT_TRUE(awc.trigger(makeWarp(&code, AssistPriority::High)));
    EXPECT_FALSE(awc.trigger(makeWarp(&code, AssistPriority::High)));
    EXPECT_EQ(awc.stats().get("awt_full_rejections"), 1u);
}

TEST(Awc, AwbStagesOnlyTwoLowPriorityWarps)
{
    CabaConfig cfg;
    cfg.awb_low_slots = 2;
    cfg.throttle = false;
    AssistWarpController awc(cfg);
    const std::vector<AssistInstr> code = {{false, 1}};
    for (int i = 0; i < 4; ++i)
        awc.trigger(makeWarp(&code, AssistPriority::Low));
    int eligible = 0;
    for (const AssistWarp &aw : awc.table())
        eligible += awc.eligible(aw);
    EXPECT_EQ(eligible, 2);
}

TEST(Awc, HighPriorityAlwaysEligible)
{
    CabaConfig cfg;
    cfg.throttle = true;
    cfg.throttle_idle_floor = 0.5;
    AssistWarpController awc(cfg);
    // Saturate the window with used slots: idle fraction 0.
    for (int i = 0; i < cfg.throttle_window; ++i)
        awc.noteIssueSlot(true);
    const std::vector<AssistInstr> code = {{false, 1}};
    awc.trigger(makeWarp(&code, AssistPriority::High));
    awc.trigger(makeWarp(&code, AssistPriority::Low));
    EXPECT_TRUE(awc.eligible(awc.table()[0]));
    EXPECT_FALSE(awc.eligible(awc.table()[1]));     // throttled
}

TEST(Awc, ThrottleReleasesWhenIdle)
{
    CabaConfig cfg;
    cfg.throttle_idle_floor = 0.25;
    AssistWarpController awc(cfg);
    for (int i = 0; i < cfg.throttle_window; ++i)
        awc.noteIssueSlot(i % 2 == 0);  // 50% idle
    EXPECT_NEAR(awc.idleFraction(), 0.5, 0.01);
    const std::vector<AssistInstr> code = {{false, 1}};
    awc.trigger(makeWarp(&code, AssistPriority::Low));
    EXPECT_TRUE(awc.eligible(awc.table()[0]));
}

TEST(Awc, KillByTokenFlushesEntries)
{
    CabaConfig cfg;
    AssistWarpController awc(cfg);
    const std::vector<AssistInstr> code = {{false, 1}};
    awc.trigger(makeWarp(&code, AssistPriority::High, 7));
    awc.trigger(makeWarp(&code, AssistPriority::High, 9));
    awc.trigger(makeWarp(&code, AssistPriority::High, 7));
    // Purpose must match as well as the token.
    EXPECT_EQ(awc.killByToken(7, AssistPurpose::Compress), 0);
    EXPECT_EQ(awc.killByToken(7, AssistPurpose::DecompressFill), 2);
    ASSERT_EQ(awc.table().size(), 1u);
    EXPECT_EQ(awc.table()[0].token, 9u);
}

TEST(Awc, EligibilityMatchesReferenceScanUnderChurn)
{
    // eligible() keeps the low-priority staging order incrementally
    // (O(1)) instead of rescanning the AWT. Drive the controller through
    // a randomized trigger/reap/kill churn and check every entry against
    // a literal reimplementation of the scan it replaced.
    CabaConfig cfg;
    cfg.awt_entries = 16;
    cfg.awb_low_slots = 2;
    cfg.throttle = false;
    AssistWarpController awc(cfg);
    const std::vector<AssistInstr> code = {{false, 1}};

    std::uint64_t rng = 12345;
    const auto next = [&rng] {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 33;
    };

    Cycle now = 0;
    for (int step = 0; step < 500; ++step) {
        const std::uint64_t roll = next() % 10;
        if (roll < 6) {
            const AssistPriority prio = next() % 2 == 0
                                            ? AssistPriority::High
                                            : AssistPriority::Low;
            awc.trigger(makeWarp(&code, prio, next() % 4));
        } else if (roll < 8 && !awc.table().empty()) {
            // Finish a random entry and reap it.
            AssistWarp &aw = awc.table()[next() % awc.table().size()];
            aw.next = static_cast<int>(code.size());
            aw.ready_at = now;
            std::vector<AssistWarp> done;
            awc.reapFinished(now, &done);
        } else {
            awc.killByToken(next() % 4, AssistPurpose::DecompressFill);
        }
        ++now;

        // Reference: the first awb_low_slots low-priority entries in
        // table order hold the staging slots (the pre-fix scan).
        int low_seen = 0;
        for (const AssistWarp &aw : awc.table()) {
            bool ref = true;
            if (aw.priority == AssistPriority::Low) {
                ref = low_seen < cfg.awb_low_slots;
                ++low_seen;
            }
            ASSERT_EQ(awc.eligible(aw), ref)
                << "step " << step << " id " << aw.id;
        }
    }
}

TEST(Awc, ZeroLowSlotsBlocksAllLowPriorityWarps)
{
    CabaConfig cfg;
    cfg.awb_low_slots = 0;
    cfg.throttle = false;
    AssistWarpController awc(cfg);
    const std::vector<AssistInstr> code = {{false, 1}};
    awc.trigger(makeWarp(&code, AssistPriority::Low));
    awc.trigger(makeWarp(&code, AssistPriority::High));
    EXPECT_FALSE(awc.eligible(awc.table()[0]));
    EXPECT_TRUE(awc.eligible(awc.table()[1]));
}

TEST(Awc, ReapBeforeSpawnIsASimulatorBug)
{
    // The old code silently clamped a negative latency to zero; now a
    // time-travelling completion aborts instead of polluting the
    // latency distribution.
    CabaConfig cfg;
    AssistWarpController awc(cfg);
    const std::vector<AssistInstr> code = {{false, 1}};
    AssistWarp aw = makeWarp(&code, AssistPriority::High);
    aw.spawned = 100;
    awc.trigger(aw);
    awc.table()[0].next = static_cast<int>(code.size());
    awc.table()[0].ready_at = 0;
    std::vector<AssistWarp> done;
    EXPECT_DEATH(awc.reapFinished(50, &done),
                 "completed before its spawn");
}

TEST(Awc, IdleWindowIsSliding)
{
    CabaConfig cfg;
    cfg.throttle_window = 8;
    AssistWarpController awc(cfg);
    for (int i = 0; i < 8; ++i)
        awc.noteIssueSlot(false);
    EXPECT_NEAR(awc.idleFraction(), 1.0, 1e-9);
    for (int i = 0; i < 8; ++i)
        awc.noteIssueSlot(true);
    EXPECT_NEAR(awc.idleFraction(), 0.0, 1e-9);
}

TEST(Awc, SkipIdleSlotsEqualsOneIdleSlotAtATime)
{
    // Random history, then skipIdleSlots(k) on one controller and k
    // noteIssueSlot(false) calls on its twin, with k at and around the
    // window size. A further window of random slots fed to both
    // overwrites every entry in turn, so equal idle fractions all the
    // way through mean equal windows and write positions.
    std::uint64_t s = 12345;
    const auto rnd = [&s](int n) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<int>((s >> 33) % static_cast<unsigned>(n));
    };
    for (const int window : {1, 2, 7, 8, 128}) {
        CabaConfig cfg;
        cfg.throttle_window = window;
        for (int trial = 0; trial < 200; ++trial) {
            AssistWarpController skip(cfg);
            AssistWarpController tick(cfg);
            const int history = rnd(3 * window);
            for (int i = 0; i < history; ++i) {
                const bool used = rnd(3) != 0;
                skip.noteIssueSlot(used);
                tick.noteIssueSlot(used);
            }
            const int around[] = {0, 1, window - 1, window, window + 1,
                                  rnd(window + 1), rnd(3 * window + 2)};
            const int k = std::max(0, around[rnd(7)]);
            skip.skipIdleSlots(static_cast<std::uint64_t>(k));
            for (int i = 0; i < k; ++i)
                tick.noteIssueSlot(false);
            ASSERT_EQ(skip.idleFraction(), tick.idleFraction())
                << "window " << window << " history " << history << " k "
                << k;
            for (int i = 0; i < window + 1; ++i) {
                const bool used = rnd(2) != 0;
                skip.noteIssueSlot(used);
                tick.noteIssueSlot(used);
                ASSERT_EQ(skip.idleFraction(), tick.idleFraction())
                    << "window " << window << " history " << history
                    << " k " << k << " replay " << i;
            }
        }
    }
}

} // namespace
} // namespace caba

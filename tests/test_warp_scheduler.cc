/**
 * @file
 * The warp scheduler's struct-of-arrays selection bitsets, which must
 * agree with the historical per-warp reference loops under arbitrary
 * state churn.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/warp_scheduler.h"
#include "workloads/workload.h"

namespace caba {
namespace {

/** Deterministic churn source (no external randomness in tests). */
struct Lcg
{
    std::uint64_t s = 0x2545f4914f6cdd1dull;
    std::uint32_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(s >> 33);
    }
    bool chance(int pct) { return next() % 100u < static_cast<unsigned>(pct); }
};

/** Reference predicates: the historical per-warp scans, recomputed from
 *  the scheduler's own (public) warp state every time. */
std::uint64_t
refIssuable(const WarpScheduler &sched, int max_warps)
{
    std::uint64_t m = 0;
    for (int w = 0; w < max_warps; ++w)
        if (sched.warpReady(sched.warp(w)))
            m |= std::uint64_t{1} << w;
    return m;
}

/** Buffered live warps whose next instruction is a global ld/st. */
std::uint64_t
refHeadGlobal(const WarpScheduler &sched, int max_warps)
{
    std::uint64_t m = 0;
    for (int w = 0; w < max_warps; ++w) {
        const WarpScheduler::WarpState &ws = sched.warp(w);
        if (ws.exists && !ws.done && !ws.ibuf.empty() &&
            isGlobalMem(ws.ibuf.front().inst->op)) {
            m |= std::uint64_t{1} << w;
        }
    }
    return m;
}

bool
refAnyDecodable(const WarpScheduler &sched, int max_warps,
                int ibuffer_entries)
{
    if (!sched.kernel())
        return false;
    for (int w = 0; w < max_warps; ++w) {
        const WarpScheduler::WarpState &ws = sched.warp(w);
        if (ws.exists && !ws.done && !ws.decode_done &&
            ws.ibuf.size() < ibuffer_entries) {
            return true;
        }
    }
    return false;
}

/** Mirrors the historical pickAndIssue loop: predicts the exact visit
 *  sequence (greedy probe + rotated parity scan) from the scheduler's
 *  state plus its own greedy/rotation bookkeeping, which it updates
 *  under the same rules. */
struct RefPicker
{
    int max_warps;
    int schedulers;
    bool gto;
    std::vector<int> greedy;
    std::vector<int> lrr;

    RefPicker(int mw, int sc, bool g)
        : max_warps(mw), schedulers(sc), gto(g),
          greedy(static_cast<std::size_t>(sc), kInvalidWarp),
          lrr(static_cast<std::size_t>(sc), 0)
    {}

    /** Visit plan for scheduler @p s given the current warp state:
     *  the warps try_issue would be offered, in order. */
    std::vector<int>
    plan(const WarpScheduler &sched, int s) const
    {
        std::vector<int> visits;
        const int g = greedy[static_cast<std::size_t>(s)];
        if (gto && g != kInvalidWarp && sched.warpReady(sched.warp(g)))
            visits.push_back(g);
        const int slots = max_warps / schedulers;
        const int start = gto ? 0 : lrr[static_cast<std::size_t>(s)];
        for (int k = 0; k < slots; ++k) {
            const int w = ((start + k) % slots) * schedulers + s;
            const WarpScheduler::WarpState &ws = sched.warp(w);
            if (ws.exists && !ws.done && sched.warpReady(ws))
                visits.push_back(w);
        }
        return visits;
    }

    void
    noteSuccess(int s, int w)
    {
        const int slots = max_warps / schedulers;
        greedy[static_cast<std::size_t>(s)] = w;
        lrr[static_cast<std::size_t>(s)] = (w / schedulers + 1) % slots;
    }
};

/** One churn round: random issues (with backpressure vetoes and random
 *  futile masks), random writebacks, a decode cycle — checking every
 *  scheduler decision against the reference loops. A futile warp is
 *  one the reference would have offered and seen refused: the pick
 *  must pass it over in its turn and report it instead. */
void
churnAndCheck(bool gto)
{
    constexpr int kMaxWarps = 16;
    constexpr int kSchedulers = 2;
    constexpr int kIbufEntries = 2;
    WarpScheduler sched(kMaxWarps, kSchedulers, kIbufEntries,
                        /*decode_width=*/2, gto);

    // A real looped program gives the ibufs genuine register
    // dependences and an Exit to retire warps through.
    AppDescriptor app = findApp("CONS");
    app.iterations = 6;
    Workload wl(app);
    wl.bindGrid(kMaxWarps);
    sched.launch(&wl, kMaxWarps, 0, 1);

    Lcg rng;
    std::vector<std::uint64_t> outstanding(kMaxWarps, 0);
    RefPicker ref(kMaxWarps, kSchedulers, gto);

    for (int round = 0; round < 4000; ++round) {
        ASSERT_EQ(sched.issuableMask(), refIssuable(sched, kMaxWarps));
        ASSERT_EQ(sched.headGlobalMask(), refHeadGlobal(sched, kMaxWarps));
        ASSERT_EQ(sched.anyDecodable(),
                  refAnyDecodable(sched, kMaxWarps, kIbufEntries));

        sched.decodeCycle();

        for (int s = 0; s < kSchedulers; ++s) {
            std::uint64_t futile = 0;
            if (rng.chance(50)) {
                for (int w = 0; w < kMaxWarps; ++w)
                    if (rng.chance(40))
                        futile |= std::uint64_t{1} << w;
            }
            // The reference plan less the futile warps, each offer
            // with whether a futile warp was passed over before it.
            std::vector<int> visits;
            std::vector<bool> futile_before;
            bool any_futile = false;
            for (const int v : ref.plan(sched, s)) {
                if ((futile >> v) & 1) {
                    any_futile = true;
                    continue;
                }
                visits.push_back(v);
                futile_before.push_back(any_futile);
            }
            std::size_t vi = 0;
            bool futile_seen = false;
            const bool issued = sched.pickAndIssue(
                s, futile, &futile_seen, [&](int w) -> bool {
                    // Every offer must match the reference plan, with
                    // the futile-warps-before-me flag agreeing too.
                    EXPECT_LT(vi, visits.size());
                    if (vi >= visits.size())
                        return false;
                    EXPECT_EQ(w, visits[vi]);
                    EXPECT_EQ(futile_seen, futile_before[vi]);
                    EXPECT_EQ((futile >> w) & 1, 0u);
                    ++vi;
                    if (rng.chance(30))
                        return false;   // backpressure veto: no mutation
                    // Accepted: emulate SmCore's issue mutations.
                    WarpScheduler::WarpState &ws = sched.warp(w);
                    const Instruction &inst = *ws.ibuf.front().inst;
                    if (inst.op == Opcode::Exit) {
                        ws.done = true;
                        sched.noteWarpRetired();
                    } else if (inst.dst >= 0 && rng.chance(70)) {
                        const std::uint64_t m = std::uint64_t{1}
                                                << inst.dst;
                        ws.pending_regs |= m;
                        outstanding[static_cast<std::size_t>(w)] |= m;
                    }
                    ws.ibuf.pop();
                    return true;
                });
            if (issued) {
                ASSERT_GT(vi, std::size_t{0});
                ASSERT_EQ(futile_seen, futile_before[vi - 1]);
                ref.noteSuccess(s, visits[vi - 1]);
            } else {
                // Rejected every offer: the scan must have run dry,
                // passing over every futile warp on the way.
                ASSERT_EQ(vi, visits.size());
                ASSERT_EQ(futile_seen, any_futile);
            }
        }

        // Random writeback completions (ldst/ALU event hooks).
        for (int w = 0; w < kMaxWarps; ++w) {
            if (outstanding[static_cast<std::size_t>(w)] != 0 &&
                rng.chance(40)) {
                sched.clearPending(w,
                                   outstanding[static_cast<std::size_t>(w)]);
                outstanding[static_cast<std::size_t>(w)] = 0;
            }
        }
        if (sched.liveWarps() == 0)
            break;
    }
    // The churn must retire everything: otherwise the equivalence above
    // exercised only a truncated prefix of warp lifetimes.
    EXPECT_EQ(sched.liveWarps(), 0);
}

TEST(WarpSchedulerBitsets, MatchesReferenceLoopsUnderChurnGto)
{
    churnAndCheck(/*gto=*/true);
}

TEST(WarpSchedulerBitsets, MatchesReferenceLoopsUnderChurnLrr)
{
    churnAndCheck(/*gto=*/false);
}

} // namespace
} // namespace caba

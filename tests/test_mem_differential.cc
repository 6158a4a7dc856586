/**
 * @file
 * Differential tests of the indexed memory-side schedulers: the DRAM
 * channel's bank-indexed FR-FCFS queues and the crossbar's head-of-line
 * arbitration masks against the scan-based originals kept in
 * reference_mem.h. Both sides see the same randomized stream, skewed
 * onto a few banks, rows and outputs, and must agree every cycle on
 * completions or deliveries, nextWork(), the skipIdle() accounting and
 * every counter and histogram of stats().
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/component.h"
#include "mem/dram.h"
#include "mem/xbar.h"
#include "reference_mem.h"

namespace caba {
namespace {

/** Deterministic stream source (no external randomness in tests). */
struct Lcg
{
    std::uint64_t s;

    explicit Lcg(std::uint64_t seed) : s(seed) {}

    std::uint32_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(s >> 33);
    }

    int
    below(int n)
    {
        return static_cast<int>(next() % static_cast<unsigned>(n));
    }

    bool chance(int pct) { return below(100) < pct; }

    /** Skewed pick in [0, n): @p hot_pct of picks land on [0, hot). */
    int
    skewed(int n, int hot, int hot_pct)
    {
        return chance(hot_pct) ? below(hot) : below(n);
    }
};

void
expectSameStats(const StatSet &a, const StatSet &b, Cycle now)
{
    ASSERT_EQ(a.all(), b.all()) << "cycle " << now;
    ASSERT_EQ(a.allDists().size(), b.allDists().size()) << "cycle " << now;
    for (const auto &[name, dist] : a.allDists()) {
        const Distribution *other = b.findDist(name);
        ASSERT_NE(other, nullptr) << name;
        ASSERT_TRUE(dist == *other) << name << " at cycle " << now;
    }
}

// ------------------------------------------------------------------ DRAM

/** Line of channel-local (bank, row, column chunk) under @p cfg's
 *  [row | bank | column] layout (the inverse of bankOf/rowOf). */
Addr
lineAt(const DramConfig &cfg, int bank, int row, int col, int half)
{
    const Addr chunks_per_col = static_cast<Addr>(cfg.row_bytes) / 256;
    const Addr chunk =
        (static_cast<Addr>(row) * static_cast<Addr>(cfg.banks) +
         static_cast<Addr>(bank)) * chunks_per_col +
        static_cast<Addr>(col);
    return chunk * static_cast<Addr>(cfg.channels) * 256 +
           static_cast<Addr>(half) * kLineSize;
}

/**
 * Phases of the DRAM stream, 1500 cycles each: a read-heavy mix, a
 * write burst that crosses the drain high mark, a write trickle with
 * the read queue empty (the drain flag flips), and a stretch where
 * nobody drains completions, so the in-flight cap blocks the scheduler.
 */
enum DramPhase { kReads, kWriteBurst, kWriteTrickle, kCapped, kNumPhases };

void
runDramDifferential(const DramConfig &cfg, std::uint64_t seed,
                    Cycle cycles)
{
    DramChannel dut(cfg);
    ref::DramChannel ref(cfg);
    Lcg rng(seed);
    std::uint64_t next_id = 1;
    std::uint64_t completions = 0;
    int skips = 0;
    const int chunks_per_col = cfg.row_bytes / 256;

    auto enqueue_one = [&](bool is_write, Cycle now) {
        ASSERT_EQ(dut.canAccept(is_write), ref.canAccept(is_write));
        if (!dut.canAccept(is_write))
            return;
        DramCmd c;
        c.id = next_id++;
        c.is_write = is_write;
        c.line = lineAt(cfg, rng.skewed(cfg.banks, 2, 60),
                        rng.skewed(8, 2, 70), rng.below(chunks_per_col),
                        rng.below(2));
        c.bursts = 1 + rng.below(kBurstsPerLine);
        c.extra_latency = rng.chance(20) ? 20 : 0;
        c.extra_bursts = rng.chance(20) ? 1 + rng.below(2) : 0;
        c.enqueued = now;
        dut.enqueue(c);
        ref.enqueue(c);
    };

    Cycle now = 0;
    while (now < cycles) {
        const int phase = static_cast<int>((now / 1500) % kNumPhases);
        int read_pct = 0;
        int write_pct = 0;
        switch (phase) {
          case kReads: read_pct = 70; write_pct = 10; break;
          case kWriteBurst: read_pct = 20; write_pct = 90; break;
          case kWriteTrickle: read_pct = 0; write_pct = 8; break;
          default: read_pct = 50; write_pct = 30; break;
        }
        if (rng.chance(read_pct))
            enqueue_one(false, now);
        if (rng.chance(write_pct))
            enqueue_one(true, now);
        if (::testing::Test::HasFatalFailure())
            return;

        dut.cycle(now);
        ref.cycle(now);
        if (phase != kCapped) {
            std::vector<DramCompletion> a;
            std::vector<DramCompletion> b;
            dut.drainCompleted(now, &a);
            ref.drainCompleted(now, &b);
            ASSERT_EQ(a.size(), b.size()) << "cycle " << now;
            for (std::size_t i = 0; i < a.size(); ++i) {
                ASSERT_EQ(a[i].id, b[i].id) << "cycle " << now;
                ASSERT_EQ(a[i].is_write, b[i].is_write);
                ASSERT_EQ(a[i].finish, b[i].finish);
            }
            completions += a.size();
        }
        ASSERT_EQ(dut.busy(), ref.busy());
        ASSERT_EQ(dut.readQueueDepth(), ref.readQueueDepth());
        expectSameStats(dut.stats(), ref.stats(), now);
        if (::testing::Test::HasFatalFailure())
            return;

        ++now;
        const Cycle wake = dut.nextWork(now);
        ASSERT_EQ(wake, ref.nextWork(now)) << "cycle " << now;
        // Sleep through the quiet stretch half the time, as the event
        // loop would (nothing enqueues or drains while skipped).
        if (wake > now && rng.chance(50)) {
            const Cycle to = wake == kNoWork ? now + 1 + rng.below(40)
                                             : std::min(wake, now + 200);
            dut.skipIdle(now, to);
            ref.skipIdle(now, to);
            now = to;
            ++skips;
            expectSameStats(dut.stats(), ref.stats(), now);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
    // Drain what is left, completions included.
    while (dut.busy() || ref.busy()) {
        dut.cycle(now);
        ref.cycle(now);
        std::vector<DramCompletion> a;
        std::vector<DramCompletion> b;
        dut.drainCompleted(now, &a);
        ref.drainCompleted(now, &b);
        ASSERT_EQ(a.size(), b.size()) << "cycle " << now;
        completions += a.size();
        ++now;
        ASSERT_LT(now, cycles + 100000) << "drain did not finish";
    }
    expectSameStats(dut.stats(), ref.stats(), now);
    // The stream must have done real work on every path it aims at.
    EXPECT_EQ(completions, next_id - 1);
    EXPECT_GT(skips, 0);
    const StatSet s = dut.stats();
    EXPECT_GT(s.get("row_hits"), 0u);
    EXPECT_GT(s.get("row_misses"), 0u);
    EXPECT_GT(s.get("sched_blocked_inflight_cap"), 0u);
    EXPECT_GT(s.get("writes"), 0u);
}

TEST(DramDifferential, DefaultChannelMatchesScanningScheduler)
{
    DramConfig cfg;
    runDramDifferential(cfg, 0x5EED, 24000);
}

TEST(DramDifferential, SmallQueuesFlipDrainModeOften)
{
    DramConfig cfg;
    cfg.banks = 4;
    cfg.queue_capacity = 8;
    cfg.write_queue_capacity = 6;
    cfg.write_drain_high = 5;
    cfg.write_drain_low = 1;
    cfg.channels = 1;
    cfg.burst_quarters = 12;
    runDramDifferential(cfg, 90210, 24000);
}

TEST(DramDifferential, HalfBandwidthSixteenBanks)
{
    DramConfig cfg;
    cfg.burst_quarters = 12;
    cfg.tWTR = 9;
    runDramDifferential(cfg, 0xC0FFEE, 12000);
}

// ---------------------------------------------------------------- xbar

void
runXbarDifferential(int inputs, int outputs, const XbarConfig &cfg,
                    std::uint64_t seed, Cycle cycles)
{
    XbarDirection dut(inputs, outputs, cfg);
    ref::XbarDirection ref(inputs, outputs, cfg);
    Lcg rng(seed);
    std::uint64_t next_id = 1;
    std::uint64_t delivered = 0;
    int skips = 0;
    const int hot_outs = outputs > 1 ? outputs / 2 : 1;

    Cycle now = 0;
    auto pop_ready = [&](int pop_pct) {
        for (int out = 0; out < outputs; ++out) {
            ASSERT_EQ(dut.hasDelivery(out, now), ref.hasDelivery(out, now));
            // A slow consumer: output queues back up and the
            // destination-full gate takes part.
            while (dut.hasDelivery(out, now) && rng.chance(pop_pct)) {
                ASSERT_EQ(dut.popDelivery(out).id, ref.popDelivery(out).id)
                    << "cycle " << now;
                ++delivered;
            }
            ASSERT_EQ(dut.outputDepth(out), ref.outputDepth(out));
        }
    };

    while (now < cycles) {
        // Bursty injection: busy stretches and quiet ones.
        const int push_pct = (now / 700) % 3 == 2 ? 3 : 35;
        for (int in = 0; in < inputs; ++in) {
            ASSERT_EQ(dut.canPush(in), ref.canPush(in));
            if (!dut.canPush(in) || !rng.chance(push_pct))
                continue;
            MemRequest req;
            req.id = next_id++;
            req.payload_bytes = 8 + rng.below(121);
            const int out = rng.skewed(outputs, hot_outs, 60);
            dut.push(in, out, req);
            ref.push(in, out, req);
        }
        pop_ready((now / 1100) % 2 == 0 ? 90 : 30);
        if (::testing::Test::HasFatalFailure())
            return;
        dut.cycle(now);
        ref.cycle(now);
        ASSERT_EQ(dut.busy(), ref.busy());
        expectSameStats(dut.stats(), ref.stats(), now);
        if (::testing::Test::HasFatalFailure())
            return;

        ++now;
        const Cycle wake = dut.nextWork(now);
        ASSERT_EQ(wake, ref.nextWork(now)) << "cycle " << now;
        if (wake > now && rng.chance(50)) {
            const Cycle to = wake == kNoWork ? now + 1 + rng.below(20)
                                             : std::min(wake, now + 200);
            dut.skipIdle(now, to);
            now = to;
            ++skips;
        }
    }
    while (dut.busy() || ref.busy()) {
        pop_ready(100);
        if (::testing::Test::HasFatalFailure())
            return;
        dut.cycle(now);
        ref.cycle(now);
        ++now;
        ASSERT_LT(now, cycles + 100000) << "drain did not finish";
    }
    expectSameStats(dut.stats(), ref.stats(), now);
    EXPECT_EQ(delivered, next_id - 1);
    EXPECT_GT(skips, 0);
}

TEST(XbarDifferential, RequestDirectionMatchesPollingArbiter)
{
    runXbarDifferential(15, 6, XbarConfig{}, 0x5EED, 12000);
}

TEST(XbarDifferential, ReplyDirectionMatchesPollingArbiter)
{
    runXbarDifferential(6, 15, XbarConfig{}, 90210, 12000);
}

TEST(XbarDifferential, SixtyFourInputsUseTheWholeMask)
{
    XbarConfig cfg;
    cfg.input_queue = 4;
    cfg.output_queue = 6;
    cfg.latency = 3;
    runXbarDifferential(64, 3, cfg, 0xC0FFEE, 6000);
}

TEST(XbarDifferential, SingleInputSingleOutput)
{
    runXbarDifferential(1, 1, XbarConfig{}, 7, 4000);
}

TEST(XbarDifferential, StatsStayEmptyUntilTheFirstPacket)
{
    // The packets/flits keys appear with the first arbitrated packet,
    // exactly as the StatSet::add() counting did.
    XbarDirection dut(2, 2, XbarConfig{});
    ref::XbarDirection ref(2, 2, XbarConfig{});
    dut.cycle(0);
    ref.cycle(0);
    EXPECT_TRUE(dut.stats().all().empty());
    EXPECT_EQ(dut.stats().all(), ref.stats().all());
    MemRequest req;
    req.payload_bytes = 72;
    dut.push(1, 0, req);
    ref.push(1, 0, req);
    dut.cycle(1);
    ref.cycle(1);
    EXPECT_EQ(dut.stats().get("packets"), 1u);
    EXPECT_EQ(dut.stats().get("flits"), 3u);
    EXPECT_EQ(dut.stats().all(), ref.stats().all());
}

TEST(XbarDifferentialDeathTest, MoreThanSixtyFourInputsAreRejected)
{
    EXPECT_DEATH(XbarDirection(65, 2, XbarConfig{}), "64 inputs");
}

} // namespace
} // namespace caba

/**
 * @file
 * Differential tests of the indexed memory-side schedulers and the
 * flattened compression memo against the originals kept in
 * reference_mem.h. The DRAM channel's bank-indexed FR-FCFS queues and
 * the crossbar's head-of-line arbitration masks see the same randomized
 * stream as the scan-based copies, skewed onto a few banks, rows and
 * outputs. Both are cycled every cycle, as the run loop cycles them.
 * The channel must agree every cycle on completions, busy(), queue
 * depth and every counter and histogram of stats(); the crossbar on
 * every delivery, pop and counter. The slot-array
 * memo must match the map-and-list memo on every
 * lookup's size and encoding, its entry count and its stats, down to
 * which keys exist.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mem/backing_store.h"
#include "mem/compression_model.h"
#include "mem/dram.h"
#include "mem/xbar.h"
#include "reference_mem.h"
#include "workloads/data_profile.h"

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

TEST(DramDifferential, SixtyFourBanksUseTheWholeMask)
{
    DramConfig cfg;
    cfg.banks = 64;
    runDramDifferential(cfg, 64, 12000);
}

TEST(DramDifferentialDeathTest, MoreThanSixtyFourBanksAreRejected)
{
    DramConfig cfg;
    cfg.banks = 65;
    EXPECT_DEATH(DramChannel{cfg}, "64 banks");
}

// ---------------------------------------------------------------- xbar

/**
 * The polling reference and the DUT see one randomized stream, both
 * cycled every cycle, as the run loop cycles them. They must agree on
 * every delivery, pop and counter.
 */
void
runXbarDifferential(int inputs, int outputs, const XbarConfig &cfg,
                    std::uint64_t seed, Cycle cycles)
{
    XbarDirection dut(inputs, outputs, cfg);
    ref::XbarDirection ref(inputs, outputs, cfg);
    Lcg rng(seed);
    std::uint64_t next_id = 1;
    std::uint64_t delivered = 0;
    const int hot_outs = outputs > 1 ? outputs / 2 : 1;

    Cycle now = 0;
    auto pop_ready = [&](int pop_pct) {
        for (int out = 0; out < outputs; ++out) {
            // A slow consumer: output queues back up and the
            // destination-full gate takes part.
            for (;;) {
                const bool ready = ref.hasDelivery(out, now);
                ASSERT_EQ(dut.hasDelivery(out, now), ready)
                    << "cycle " << now;
                if (!ready || !rng.chance(pop_pct))
                    break;
                const std::uint64_t id = ref.popDelivery(out).id;
                ASSERT_EQ(dut.popDelivery(out).id, id) << "cycle " << now;
                ++delivered;
            }
        }
    };
    auto cycle_all = [&] {
        dut.cycle(now);
        ref.cycle(now);
        ASSERT_EQ(dut.busy(), ref.busy());
        expectSameStats(dut.stats(), ref.stats(), now);
        ++now;
    };

    while (now < cycles) {
        // Bursty injection: busy stretches and quiet ones.
        const int push_pct = (now / 700) % 3 == 2 ? 3 : 35;
        for (int in = 0; in < inputs; ++in) {
            const bool room = ref.canPush(in);
            ASSERT_EQ(dut.canPush(in), room);
            if (!room || !rng.chance(push_pct))
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
        cycle_all();
        if (::testing::Test::HasFatalFailure())
            return;
    }
    while (dut.busy() || ref.busy()) {
        pop_ready(100);
        if (::testing::Test::HasFatalFailure())
            return;
        cycle_all();
        if (::testing::Test::HasFatalFailure())
            return;
        ASSERT_LT(now, cycles + 100000) << "drain did not finish";
    }
    EXPECT_EQ(delivered, next_id - 1);
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

// ------------------------------------------------------ compression memo

/** Same keys and values, same gauge flags, same histograms. */
void
expectSameModelStats(const StatSet &a, const StatSet &b, int step)
{
    expectSameStats(a, b, static_cast<Cycle>(step));
    for (const auto &[name, value] : a.all()) {
        (void)value;
        ASSERT_EQ(a.isGauge(name), b.isGauge(name))
            << name << " at step " << step;
    }
}

/**
 * Random lookups, full-line writes and partial writes over a line pool
 * a little over twice the memo capacity, skewed onto a hot subset, so
 * the stream mixes memo hits, version misses and LRU evictions.
 */
void
runMemoDifferential(Algorithm algo, std::size_t memo_cap, std::uint64_t seed,
                    int steps)
{
    // Eight data profiles across consecutive lines: images of every
    // size from a few bytes to verbatim.
    BackingStore store([](Addr line, std::uint8_t *out) {
        const auto profile = static_cast<DataProfile>((line / kLineSize) % 8);
        generateProfileLine(profile, 11, line, out);
    });
    CompressionModel dut(store, algo, true, memo_cap);
    ref::CompressionModel ref(store, algo, true, memo_cap);
    ASSERT_TRUE(dut.stats().all().empty()) << "keys before any compression";
    expectSameModelStats(dut.stats(), ref.stats(), -1);

    Lcg rng(seed);
    const int cap = static_cast<int>(memo_cap);
    const int lines = 2 * cap + 3;
    bool saw_eviction = false;
    for (int step = 0; step < steps; ++step) {
        const Addr line =
            static_cast<Addr>(rng.skewed(lines, cap / 2 + 1, 60)) * kLineSize;
        const int roll = rng.below(100);
        if (roll < 8) {
            std::uint8_t data[kLineSize];
            const bool narrow = rng.chance(50);  // compressible or not
            for (std::uint8_t &b : data)
                b = static_cast<std::uint8_t>(narrow ? rng.below(4)
                                                     : rng.next());
            store.write(line, data);
            continue;
        }
        if (roll < 20) {
            const int offset = rng.below(kLineSize);
            store.writePartial(line, offset,
                               1 + rng.below(kLineSize - offset));
            continue;
        }
        // The memo keeps only sizes and encodings; the bytes behind
        // them are held to the reference codecs by
        // test_codec_differential.cc and to the input by verify.
        const ImageSummary got = dut.lookup(line);
        const CompressedLine &want = ref.lookup(line);
        ASSERT_EQ(got.size, want.size()) << "step " << step;
        ASSERT_EQ(got.encoding, want.encoding) << "step " << step;
        ASSERT_EQ(dut.memoEntries(), ref.memoEntries()) << "step " << step;
        expectSameModelStats(dut.stats(), ref.stats(), step);
        if (::testing::Test::HasFatalFailure())
            return;
        if (!saw_eviction && dut.stats().get("memo_evictions") > 0) {
            saw_eviction = true;
            ASSERT_EQ(dut.stats().all().count("memo_evictions"), 1u);
        }
    }
    EXPECT_TRUE(saw_eviction) << "the stream never filled the memo";
    EXPECT_GT(dut.stats().get("lines_compressed"),
              dut.stats().get("memo_peak_entries"))
        << "the stream never recompressed a line";
}

TEST(MemoDifferential, EveryCapacityFromOneToSixtyFour)
{
    for (std::size_t cap = 1; cap <= 64; ++cap) {
        SCOPED_TRACE("memo_cap " + std::to_string(cap));
        runMemoDifferential(Algorithm::Bdi, cap, 100 + cap, 1500);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(MemoDifferential, EveryAlgorithm)
{
    for (const Algorithm algo : {Algorithm::Fpc, Algorithm::CPack,
                                 Algorithm::BestOfAll}) {
        SCOPED_TRACE(algorithmName(algo));
        for (const std::size_t cap : {std::size_t{3}, std::size_t{32}}) {
            runMemoDifferential(algo, cap, 7 * cap, 3000);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(MemoDifferential, KeysAppearWithTheirFirstEvent)
{
    BackingStore store([](Addr line, std::uint8_t *out) {
        generateProfileLine(DataProfile::Pointer, 3, line, out);
    });
    CompressionModel dut(store, Algorithm::Bdi, true, 2);
    ref::CompressionModel ref(store, Algorithm::Bdi, true, 2);
    EXPECT_TRUE(dut.stats().all().empty());
    EXPECT_TRUE(dut.stats().allDists().empty());
    dut.lookup(0);
    ref.lookup(0);
    expectSameModelStats(dut.stats(), ref.stats(), 0);
    EXPECT_EQ(dut.stats().all().count("lines_compressed"), 1u);
    EXPECT_TRUE(dut.stats().isGauge("memo_peak_bytes"));
    EXPECT_EQ(dut.stats().all().count("memo_evictions"), 0u);
    for (Addr line = kLineSize; line <= 2 * kLineSize; line += kLineSize) {
        dut.lookup(line);
        ref.lookup(line);
    }
    expectSameModelStats(dut.stats(), ref.stats(), 2);
    EXPECT_EQ(dut.stats().get("memo_evictions"), 1u);
    EXPECT_EQ(dut.stats().get("memo_peak_bytes"),
              ref.stats().get("memo_peak_bytes"));
}

} // namespace
} // namespace caba

/**
 * @file
 * Differential tests of the request-path containers: FlatMap against
 * std::unordered_map (random insert / find / erase, forced collisions,
 * backward-shift erase across the wrap point, growth), FlatMap's
 * sorted-keys walk, ListPool's FIFO lists against std::vector, and Ring
 * against std::deque (including take() and growth while the ring is
 * wrapped).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "common/ring.h"

namespace caba {
namespace {

/** Deterministic stream source (no external randomness in tests). */
struct Lcg
{
    std::uint64_t s;

    explicit Lcg(std::uint64_t seed) : s(seed) {}

    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 11;
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/** Every key homes to slot 0: one long probe run from the start. */
struct AllAtStart
{
    std::uint64_t operator()(std::uint64_t) const { return 0; }
};

/** Every key homes to the last slot, so every run wraps to slot 0. */
struct AllAtEnd
{
    std::uint64_t operator()(std::uint64_t) const { return ~0ull; }
};

/** Eight homes a few slots apart at the end of the table (the tests'
 *  keys are multiples of 64): probe runs interleave and wrap. */
struct NearbyHomes
{
    std::uint64_t
    operator()(std::uint64_t k) const
    {
        return ~0ull - (((k >> 6) & 7) << 56);
    }
};

/** Runs @p ops random operations on both tables over keys in
 *  [0, @p key_space), checking every result and, every step, that each
 *  live reference key is still found with its value. */
template <typename Hash>
void
differential(std::uint64_t seed, int ops, std::uint64_t key_space,
             int insert_pct, bool check_all_each_step)
{
    Lcg rng(seed);
    FlatMap<std::uint64_t, Hash> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    for (int op = 0; op < ops; ++op) {
        const std::uint64_t k = rng.below(key_space) * 64;
        const auto roll = static_cast<int>(rng.below(100));
        if (roll < insert_pct) {
            const std::uint64_t v = rng.next();
            const auto [slot, fresh] = map.tryEmplace(k);
            const bool ref_fresh = ref.count(k) == 0;
            ASSERT_EQ(fresh, ref_fresh) << "op " << op;
            if (fresh) {
                ASSERT_EQ(*slot, 0u) << "new entries are value-initialized";
            }
            *slot = v;
            ref[k] = v;
        } else if (roll < insert_pct + 25) {
            ASSERT_EQ(map.erase(k), ref.erase(k) == 1) << "op " << op;
        } else {
            const std::uint64_t *got = map.find(k);
            const auto it = ref.find(k);
            ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << op;
            if (got) {
                ASSERT_EQ(*got, it->second);
            }
        }
        ASSERT_EQ(map.size(), ref.size());
        if (check_all_each_step) {
            // lint: order-insensitive — every key is checked independently
            for (const auto &[rk, rv] : ref) {
                const std::uint64_t *got = map.find(rk);
                ASSERT_NE(got, nullptr) << "lost key " << rk << " at op " << op;
                ASSERT_EQ(*got, rv);
            }
        }
    }
    std::vector<std::uint64_t> keys;
    // lint: order-insensitive — keys sorted below
    for (const auto &entry : ref)
        keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(map.sortedKeys(), keys);
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomOps)
{
    differential<FibonacciHash>(1, 200000, 4096, 45, false);
    differential<FibonacciHash>(2, 20000, 300, 40, true);
}

TEST(FlatMap, ForcedCollisionsFromOneHome)
{
    differential<AllAtStart>(3, 6000, 200, 40, true);
}

TEST(FlatMap, BackwardShiftAcrossTheWrapPoint)
{
    differential<AllAtEnd>(4, 6000, 200, 40, true);
}

TEST(FlatMap, InterleavedProbeRunsFromNearbyHomes)
{
    differential<NearbyHomes>(5, 20000, 500, 40, true);
}

TEST(FlatMap, GrowsFromEmptyAndKeepsEveryEntry)
{
    FlatMap<std::uint64_t> map;
    EXPECT_EQ(map.slots(), 0u);
    EXPECT_EQ(map.find(64), nullptr);
    EXPECT_FALSE(map.erase(64));
    std::size_t last_slots = 0;
    int growths = 0;
    for (std::uint64_t k = 0; k < 5000; ++k) {
        map[k * 64] = k;
        if (map.slots() != last_slots) {
            ++growths;
            last_slots = map.slots();
        }
        ASSERT_LE(map.size() * 4, map.slots() * 3) << "load above 3/4";
    }
    EXPECT_GE(growths, 10);
    for (std::uint64_t k = 0; k < 5000; ++k) {
        const std::uint64_t *v = map.find(k * 64);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, k);
    }
}

TEST(FlatMap, ReserveAvoidsGrowthAndEraseKeepsSlots)
{
    FlatMap<int> map;
    map.reserve(100);
    const std::size_t slots = map.slots();
    EXPECT_GE(slots * 3, 100u * 4);
    for (int i = 0; i < 100; ++i)
        map[static_cast<std::uint64_t>(i)] = i;
    EXPECT_EQ(map.slots(), slots);
    for (int i = 0; i < 100; i += 2)
        EXPECT_TRUE(map.erase(static_cast<std::uint64_t>(i)));
    EXPECT_EQ(map.size(), 50u);
    EXPECT_EQ(map.slots(), slots);
    for (int i = 1; i < 100; i += 2)
        EXPECT_TRUE(map.erase(static_cast<std::uint64_t>(i)));
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(1), nullptr);
    EXPECT_EQ(map.slots(), slots);
}

TEST(FlatMap, SortedKeysAreAscendingWhateverTheSlotOrder)
{
    FlatMap<int, AllAtEnd> wrapped;
    FlatMap<int> hashed;
    Lcg rng(6);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 300; ++i) {
        const std::uint64_t k = rng.next();
        if (std::find(keys.begin(), keys.end(), k) != keys.end())
            continue;
        keys.push_back(k);
        wrapped[k] = i;
        hashed[k] = i;
    }
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(wrapped.sortedKeys(), keys);
    EXPECT_EQ(hashed.sortedKeys(), keys);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(FlatMapDeathTest, EmptyMarkerKeyIsRejected)
{
    FlatMap<int> map;
    EXPECT_DEATH(map.tryEmplace(~0ull), "reserved");
}

// ------------------------------------------------------------- ListPool

TEST(ListPool, ListsKeepFifoOrderAcrossReleases)
{
    ListPool<int> pool;
    Lcg rng(7);
    std::vector<ListPool<int>::List> lists(16);
    std::vector<std::vector<int>> ref(16);
    for (int op = 0; op < 20000; ++op) {
        const auto i = static_cast<std::size_t>(rng.below(16));
        if (rng.below(100) < 70) {
            const int v = static_cast<int>(rng.below(1000));
            pool.append(lists[i], v);
            ref[i].push_back(v);
            continue;
        }
        std::vector<int> got;
        for (std::int32_t n = lists[i].head; n >= 0; n = pool.next(n))
            got.push_back(pool.value(n));
        ASSERT_EQ(got, ref[i]) << "op " << op;
        pool.release(lists[i]);
        EXPECT_TRUE(lists[i].empty());
        ref[i].clear();
    }
}

// ----------------------------------------------------------------- Ring

TEST(Ring, MatchesDequeUnderRandomPushPop)
{
    Ring<std::uint64_t> ring;
    std::deque<std::uint64_t> ref;
    Lcg rng(8);
    for (int op = 0; op < 100000; ++op) {
        // Drift the push probability so the queue repeatedly fills,
        // wraps and drains.
        const int push_pct = (op / 5000) % 2 == 0 ? 65 : 35;
        if (ref.empty() || static_cast<int>(rng.below(100)) < push_pct) {
            const std::uint64_t v = rng.next();
            ring.push_back(v);
            ref.push_back(v);
        } else {
            ASSERT_EQ(ring.front(), ref.front()) << "op " << op;
            // Every other pop goes through take(), which returns the
            // front it removes.
            if (op % 2 == 0)
                ASSERT_EQ(ring.take(), ref.front()) << "op " << op;
            else
                ring.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(ring.size(), ref.size());
        ASSERT_EQ(ring.empty(), ref.empty());
        if (op % 97 == 0) {
            for (std::size_t i = 0; i < ref.size(); ++i)
                ASSERT_EQ(ring[i], ref[i]) << "op " << op << " index " << i;
        }
    }
}

TEST(Ring, GrowsWhileWrappedKeepingOrder)
{
    Ring<int> ring;
    std::deque<int> ref;
    // Fill to the first capacity, then each round rotate the head to the
    // middle of the array so the contents wrap before the ring grows.
    int next = 0;
    for (; next < 4; ++next) {
        ring.push_back(next);
        ref.push_back(next);
    }
    for (int round = 0; round < 6; ++round) {
        const std::size_t depth = ref.size();
        for (std::size_t i = 0; i < depth / 2 + 1; ++i) {
            ring.pop_front();
            ref.pop_front();
            ring.push_back(next);
            ref.push_back(next++);
        }
        // Now wrapped: push well past the current capacity.
        const std::size_t target = 2 * depth + 5;
        while (ref.size() < target) {
            ring.push_back(next);
            ref.push_back(next++);
        }
        ASSERT_EQ(ring.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(ring[i], ref[i]) << "round " << round << " index " << i;
    }
}

TEST(Ring, PushingOwnElementSurvivesGrowth)
{
    Ring<int> ring;
    for (int i = 0; i < 4; ++i)
        ring.push_back(i);
    ring.push_back(ring.front());   // full: this push grows the array
    ASSERT_EQ(ring.size(), 5u);
    EXPECT_EQ(ring[4], 0);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    ring.emplace_back(7);
    EXPECT_EQ(ring.front(), 7);
}

} // namespace
} // namespace caba

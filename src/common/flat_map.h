/**
 * @file
 * Allocation-light tables for the memory request path, where every
 * request used to cost a few node allocations in std::unordered_map.
 *
 *  - FlatMap<V>: a uint64_t-keyed open-addressed table. Slots live in
 *    one array; lookups probe linearly from the key's home slot, and
 *    erase shifts the rest of the probe run back instead of leaving a
 *    tombstone, so a table that stops growing stops allocating. It
 *    offers no iteration: the only walk over its keys is sortedKeys(),
 *    so nothing can depend on slot order.
 *  - ListPool<T>: FIFO lists threaded through one shared node pool.
 *    A FlatMap entry that needs several values (the requests merged
 *    onto one miss) holds a List handle; released nodes are reused.
 */
#ifndef CABA_COMMON_FLAT_MAP_H
#define CABA_COMMON_FLAT_MAP_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.h"

namespace caba {

/** Fibonacci hashing: FlatMap takes the top bits of the product. */
struct FibonacciHash
{
    std::uint64_t
    operator()(std::uint64_t k) const
    {
        return k * 0x9E3779B97F4A7C15ull;
    }
};

/**
 * Open-addressed uint64_t -> V table with linear probing and
 * backward-shift erase. The key ~0 is reserved as the empty marker.
 * Pointers returned by find()/tryEmplace() stay valid until the next
 * insertion or erase.
 */
template <typename V, typename Hash = FibonacciHash>
class FlatMap
{
  public:
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slot count (a power of two, or 0 before the first insertion). */
    std::size_t slots() const { return slots_.size(); }

    /** Grows the slot array so @p n entries fit at load <= 3/4. */
    void
    reserve(std::size_t n)
    {
        if (n == 0)
            return;
        CABA_CHECK(n <= SIZE_MAX / 8, "FlatMap reserve out of range");
        std::size_t want = kMinSlots;
        while (want / 4 * 3 < n)
            want *= 2;
        if (want > slots_.size())
            rehash(want);
    }

    V *
    find(std::uint64_t k)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(k);; i = (i + 1) & mask_) {
            if (slots_[i].key == k)
                return &slots_[i].value;
            if (slots_[i].key == kEmptyKey)
                return nullptr;
        }
    }

    const V *
    find(std::uint64_t k) const
    {
        return const_cast<FlatMap *>(this)->find(k);
    }

    bool contains(std::uint64_t k) const { return find(k) != nullptr; }

    /**
     * The entry for @p k, value-initialized if it was absent; the flag
     * tells whether this call inserted it.
     */
    std::pair<V *, bool>
    tryEmplace(std::uint64_t k)
    {
        CABA_CHECK(k != kEmptyKey, "FlatMap key ~0 is reserved");
        if ((size_ + 1) * 4 > slots_.size() * 3)
            rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
        std::size_t i = home(k);
        for (; slots_[i].key != kEmptyKey; i = (i + 1) & mask_) {
            if (slots_[i].key == k)
                return {&slots_[i].value, false};
        }
        slots_[i].key = k;
        slots_[i].value = V{};
        ++size_;
        return {&slots_[i].value, true};
    }

    V &operator[](std::uint64_t k) { return *tryEmplace(k).first; }

    /** Removes @p k; returns whether it was present. */
    bool
    erase(std::uint64_t k)
    {
        if (size_ == 0)
            return false;
        std::size_t hole = home(k);
        for (;; hole = (hole + 1) & mask_) {
            if (slots_[hole].key == kEmptyKey)
                return false;
            if (slots_[hole].key == k)
                break;
        }
        // Backward shift: a later entry of the probe run moves into the
        // hole unless its home lies cyclically in (hole, j], where it
        // would no longer be reachable from its home.
        for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmptyKey;
             j = (j + 1) & mask_) {
            const std::size_t from_home = (j - home(slots_[j].key)) & mask_;
            if (from_home >= ((j - hole) & mask_)) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole].key = kEmptyKey;
        slots_[hole].value = V{};
        --size_;
        return true;
    }

    /** Every key, ascending: the table's only order-exposing walk. */
    std::vector<std::uint64_t>
    sortedKeys() const
    {
        std::vector<std::uint64_t> keys;
        keys.reserve(size_);
        for (const Slot &s : slots_) {
            if (s.key != kEmptyKey)
                keys.push_back(s.key);
        }
        std::sort(keys.begin(), keys.end());
        return keys;
    }

  private:
    struct Slot
    {
        std::uint64_t key = kEmptyKey;
        V value{};
    };

    static constexpr std::size_t kMinSlots = 8;

    std::size_t
    home(std::uint64_t k) const
    {
        return static_cast<std::size_t>(Hash{}(k) >> shift_);
    }

    void
    rehash(std::size_t n)
    {
        std::vector<Slot> old(n);
        old.swap(slots_);
        mask_ = n - 1;
        shift_ = 64 - std::countr_zero(n);
        for (Slot &s : old) {
            if (s.key == kEmptyKey)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != kEmptyKey)
                i = (i + 1) & mask_;
            slots_[i] = std::move(s);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    int shift_ = 64;
};

/**
 * FIFO lists of T sharing one node pool. A list is a {head, tail}
 * handle owned by the caller; release() returns all its nodes to the
 * free list in O(1), and append() reuses them before growing the pool.
 */
template <typename T>
class ListPool
{
  public:
    struct List
    {
        std::int32_t head = -1;
        std::int32_t tail = -1;

        bool empty() const { return head < 0; }
    };

    void reserve(std::size_t n) { nodes_.reserve(n); }

    void
    append(List &l, const T &v)
    {
        std::int32_t n = free_;
        if (n >= 0) {
            free_ = nodes_[static_cast<std::size_t>(n)].next;
            nodes_[static_cast<std::size_t>(n)] = {v, -1};
        } else {
            n = static_cast<std::int32_t>(nodes_.size());
            nodes_.push_back({v, -1});
        }
        if (l.tail >= 0)
            nodes_[static_cast<std::size_t>(l.tail)].next = n;
        else
            l.head = n;
        l.tail = n;
    }

    /** Value at node @p n (valid until the next append()). */
    const T &value(std::int32_t n) const
    {
        return nodes_[static_cast<std::size_t>(n)].value;
    }

    /** Node after @p n in its list, or -1. */
    std::int32_t next(std::int32_t n) const
    {
        return nodes_[static_cast<std::size_t>(n)].next;
    }

    /** Returns every node of @p l to the pool and empties @p l. */
    void
    release(List &l)
    {
        if (l.empty())
            return;
        nodes_[static_cast<std::size_t>(l.tail)].next = free_;
        free_ = l.head;
        l = List{};
    }

  private:
    struct Node
    {
        T value;
        std::int32_t next = -1;
    };

    std::vector<Node> nodes_;
    std::int32_t free_ = -1;
};

} // namespace caba

#endif // CABA_COMMON_FLAT_MAP_H

/**
 * @file
 * Set-associative write-back cache model with LRU replacement (Table 1:
 * L1 16KB/4-way, L2 768KB/16-way). Data values never live here — the
 * functional image is the BackingStore — so entries carry only the
 * metadata the timing and bandwidth models need (compressed size, dirty).
 *
 * A tag_factor > 1 turns the cache into the compressed cache of
 * Section 6.5: tags multiply while the per-set data budget stays at
 * assoc * 64 bytes, so more lines fit when they compress well.
 */
#ifndef CABA_MEM_CACHE_H
#define CABA_MEM_CACHE_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace caba {

/** Geometry and behaviour of one cache instance. */
struct CacheConfig
{
    int size_bytes = 16 * 1024;
    int assoc = 4;

    /**
     * Tag multiplier for the compressed-cache variant (Section 6.5).
     * 1 = conventional cache: a line always occupies a full
     * kLineSize (128B) slot.
     */
    int tag_factor = 1;
};

/** Outcome of an insertion: lines pushed out of the set. */
struct Eviction
{
    Addr line = 0;
    bool dirty = false;
    int bytes = kLineSize;  ///< Compressed size the victim occupied.
};

/** Tag/metadata array of one cache level. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Looks up @p line; on hit updates LRU and returns true.
     * Counts a hit or miss in stats().
     */
    bool access(Addr line);

    /** Non-counting, non-LRU-touching presence probe. */
    bool contains(Addr line) const;

    /**
     * Inserts @p line occupying @p bytes (compressed size; clamped to a
     * full slot when tag_factor == 1). Evicts as many LRU victims as
     * needed; evictions are appended to @p out.
     */
    void insert(Addr line, int bytes, bool dirty,
                std::vector<Eviction> *out);

    /** Marks @p line dirty if present; returns presence. */
    bool setDirty(Addr line);

    /** Drops @p line if present; returns the entry via @p out if given. */
    bool invalidate(Addr line, Eviction *out = nullptr);

    int numSets() const { return num_sets_; }
    int tagsPerSet() const { return tags_per_set_; }
    int setBudgetBytes() const { return set_budget_; }

    /** hits / misses / evictions / dirty_evictions counters. */
    StatSet
    stats() const
    {
        StatSet s;
        s.setCounter("hits", hits_);
        s.setCounter("misses", misses_);
        s.setCounter("evictions", evictions_);
        s.setCounter("dirty_evictions", dirty_evictions_);
        return s;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Lookups through access() (audit: hits + misses == accesses). */
    std::uint64_t accesses() const { return accesses_; }

    /** Sum of occupied bytes across all sets (for utilization tests). */
    int occupiedBytes() const;

    /** Number of valid lines currently resident. */
    int residentLines() const;

  private:
    struct Entry
    {
        Addr line = 0;
        bool valid = false;
        bool dirty = false;
        int bytes = kLineSize;
        std::uint64_t lru = 0;
    };

    int setIndex(Addr line) const;
    int usedBytes(int set) const;

    int num_sets_;
    int tags_per_set_;
    int set_budget_;
    std::uint64_t lru_clock_ = 0;
    std::vector<Entry> entries_;    // num_sets_ * tags_per_set_
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t accesses_ = 0;    // audit-only; not exported in stats()
    std::uint64_t evictions_ = 0;
    std::uint64_t dirty_evictions_ = 0;
};

} // namespace caba

#endif // CABA_MEM_CACHE_H

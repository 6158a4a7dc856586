/**
 * @file
 * Metadata cache near the memory controller (Section 4.3.2): caches the
 * per-line burst-count metadata stored in reserved DRAM (8MB in the
 * paper). A burst count of 1-4 needs 2 bits. One MD entry covers 256
 * data lines (a 32KB region) and takes one kLineSize (128-byte) cache
 * slot, so an 8KB 4-way instance holds 64 entries; the paper reports
 * ~85-99% hit rates for its 8KB cache. A miss costs an extra DRAM
 * metadata access on the same channel.
 */
#ifndef CABA_MEM_MD_CACHE_H
#define CABA_MEM_MD_CACHE_H

#include "mem/cache.h"

namespace caba {

/** Burst-count metadata cache. */
class MdCache
{
  public:
    /**
     * @param size_bytes capacity (paper: 8KB); @param assoc ways (4);
     * @param coverage_lines data lines described by one MD entry (256,
     * a 32KB region).
     */
    explicit MdCache(int size_bytes = 8 * 1024, int assoc = 4,
                     int coverage_lines = 256)
        : cache_({size_bytes, assoc, 1}), coverage_(coverage_lines)
    {}

    /**
     * Looks up the metadata covering data line @p line; fills on miss.
     * @return true on hit (no extra DRAM access needed).
     */
    bool access(Addr line) { return access(line, false, nullptr); }

    /**
     * Lookup with store-path semantics: when @p update is set the burst
     * count of @p line changes, so the MD line is made dirty (inserted
     * dirty on a miss). A dirty MD line pushed out by the fill is a real
     * metadata writeback to reserved DRAM; it is reported through
     * @p writeback so the partition can charge the DRAM access instead
     * of silently dropping the dirtiness.
     */
    bool
    access(Addr line, bool update, bool *writeback)
    {
        const Addr md_line =
            (line / kLineSize) / static_cast<Addr>(coverage_) * kLineSize;
        if (cache_.access(md_line)) {
            if (update)
                cache_.setDirty(md_line);
            return true;
        }
        evicted_.clear();
        cache_.insert(md_line, kLineSize, update, &evicted_);
        if (writeback) {
            for (const Eviction &e : evicted_)
                *writeback = *writeback || e.dirty;
        }
        return false;
    }

    double
    hitRate() const
    {
        const double total =
            static_cast<double>(cache_.hits() + cache_.misses());
        return total == 0.0 ? 0.0
                            : static_cast<double>(cache_.hits()) / total;
    }

    std::uint64_t hits() const { return cache_.hits(); }
    std::uint64_t misses() const { return cache_.misses(); }
    std::uint64_t accesses() const { return cache_.accesses(); }
    StatSet stats() const { return cache_.stats(); }

  private:
    Cache cache_;
    int coverage_;
    std::vector<Eviction> evicted_;     ///< Fill scratch, reused.
};

} // namespace caba

#endif // CABA_MEM_MD_CACHE_H

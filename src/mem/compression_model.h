/**
 * @file
 * Shared functional view of compressed main memory: for any line it
 * yields the compressed size and encoding of the line's *current*
 * contents, memoized by (line, version). This models the paper's setup
 * where data lives in DRAM in compressed form (initially prepared on the
 * host, Section 4.3.1, and kept compressed by store-side assist warps
 * thereafter). Like the memory controller's per-line burst-count
 * metadata (Section 4.3.2), the memo keeps no image bytes: the timing
 * model reads only sizes and encodings.
 */
#ifndef CABA_MEM_COMPRESSION_MODEL_H
#define CABA_MEM_COMPRESSION_MODEL_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "compress/codec.h"
#include "compress/registry.h"
#include "mem/backing_store.h"

namespace caba {

class Audit;

/** The compressed size and encoding of a line's current contents. */
struct ImageSummary
{
    int size = kLineSize;   ///< Compressed bytes, in [1, kLineSize].
    int encoding = 0;       ///< Algorithm-specific encoding id.

    /** True when the codec stored the line verbatim. */
    bool isUncompressed() const { return size >= kLineSize; }

    /** DRAM bursts needed to move the line (paper Section 4.3.2). */
    int
    bursts() const
    {
        return static_cast<int>(divCeil(static_cast<std::uint64_t>(size),
                                        kBurstSize));
    }
};

/** Compressed-size/encoding oracle with round-trip verification. */
class CompressionModel
{
  public:
    /** Default memo capacity in entries (LRU-evicted beyond this). */
    static constexpr std::size_t kDefaultMemoCapacity = 32768;

    /**
     * @param store    functional memory the compressed images mirror
     * @param algo     algorithm used for lines in memory (None = disabled)
     * @param verify   when true, every lookup round-trips the codec and
     *                 panics on mismatch (on by default; cheap)
     * @param memo_cap memoization capacity in lines; the memo is a pure
     *                 cache over (line, version), so eviction never
     *                 changes results, only recompression work
     */
    CompressionModel(const BackingStore &store, Algorithm algo,
                     bool verify = true,
                     std::size_t memo_cap = kDefaultMemoCapacity);

    /** Compressed size and encoding of @p line's current contents. */
    ImageSummary lookup(Addr line);

    /** Compressed size in bytes of the line's current contents. */
    int compressedSize(Addr line);

    /** DRAM bursts for the line's current contents. */
    int bursts(Addr line);

    Algorithm algorithm() const { return algo_; }
    bool enabled() const { return algo_ != Algorithm::None; }

    /** Aggregate compressibility counters (lines, bytes, bursts) plus
     *  memo_peak_entries / memo_peak_bytes / memo_evictions. Each key
     *  appears with its first event: all but memo_evictions with the
     *  first compression, memo_evictions with the first eviction. */
    StatSet stats() const;

    std::size_t memoEntries() const { return live_; }
    std::size_t memoCapacity() const { return memo_cap_; }

    /** Byte / burst conservation and memo-bound invariant checks. */
    void audit(Audit &a) const;

  private:
    /** Version of a slot holding no image yet (no line reaches it). */
    static constexpr std::uint64_t kNoImage = ~std::uint64_t{0};

    /**
     * Bytes memo_peak_bytes charges per live entry besides the image
     * size: the entry of the node-based memo whose heap images this
     * slot array replaced. Charging it keeps memo_peak_bytes, and every
     * stats digest that covers it, unchanged.
     */
    static constexpr std::size_t kEntryFootprintBytes = 56;

    /** One memo slot: what the memory image records of a line. */
    struct Entry
    {
        Addr key = 0;
        std::uint64_t version = kNoImage;
        std::int32_t prev = -1;     ///< LRU neighbour nearer the front.
        std::int32_t next = -1;     ///< LRU neighbour nearer the back.
        ImageSummary image;
    };

    /** Footprint @p e is charged in memo_bytes_. */
    static std::size_t
    footprint(const Entry &e)
    {
        return e.version == kNoImage
            ? 0
            : kEntryFootprintBytes + static_cast<std::size_t>(e.image.size);
    }

    /** Slot holding @p line, or -1. */
    std::int32_t find(Addr line) const;

    std::size_t bucketOf(Addr line) const;
    void unlinkLru(std::int32_t s);
    void pushFront(std::int32_t s);

    /** Unindexes the least recently used entry; returns its slot. */
    std::int32_t evictLru();

    const BackingStore &store_;
    Algorithm algo_;
    const Codec *codec_ = nullptr;
    bool verify_;
    std::size_t memo_cap_;

    // The memo: slots_ (reserved once at memo_cap_, never shrunk), the
    // bucket-chain link of each slot, and per-bucket chain heads. An
    // evicted slot is reused in place by the next new line.
    std::vector<Entry> slots_;
    std::vector<std::int32_t> chain_;
    std::vector<std::int32_t> buckets_;
    int bucket_shift_ = 0;
    std::size_t live_ = 0;
    std::int32_t lru_front_ = -1;   ///< Most recently used.
    std::int32_t lru_back_ = -1;    ///< Next victim.

    std::size_t memo_bytes_ = 0;
    std::size_t peak_memo_bytes_ = 0;
    std::size_t peak_memo_entries_ = 0;

    // Hot-path counters, assembled into a StatSet by stats().
    std::uint64_t lines_compressed_ = 0;
    std::uint64_t uncompressed_bytes_ = 0;
    std::uint64_t compressed_bytes_ = 0;
    std::uint64_t uncompressed_bursts_ = 0;
    std::uint64_t compressed_bursts_ = 0;
    std::uint64_t memo_evictions_ = 0;
    Distribution compressed_line_bytes_;
};

} // namespace caba

#endif // CABA_MEM_COMPRESSION_MODEL_H

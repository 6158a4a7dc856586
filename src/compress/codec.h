/**
 * @file
 * Abstract interface for cache-line compression algorithms (paper
 * Section 4.1). A codec is a pure function pair over cache lines plus a
 * cost model: hardware latencies (for the HW-BDI baselines) and an
 * assist-warp instruction budget (for the CABA designs, Section 4.1.2).
 */
#ifndef CABA_COMPRESS_CODEC_H
#define CABA_COMPRESS_CODEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace caba {

/**
 * A compressed image of one cache line. @c bytes holds the full
 * self-describing representation (encoding metadata at the head of the
 * line, per paper Section 4.1.3), so decompress() needs no side channel.
 */
struct CompressedLine
{
    /** Compressed bytes, metadata first. Size in [1, kLineSize]. */
    std::vector<std::uint8_t> bytes;

    /** Algorithm-specific encoding id (drives AWS subroutine selection). */
    int encoding = 0;

    /** Compressed size in bytes. */
    int size() const { return static_cast<int>(bytes.size()); }

    /** True when the codec stored the line verbatim. */
    bool isUncompressed() const { return size() >= kLineSize; }

    /** DRAM bursts needed to move this line (paper Section 4.3.2). */
    int bursts() const
    {
        return static_cast<int>(divCeil(static_cast<std::uint64_t>(size()),
                                        kBurstSize));
    }
};

/**
 * A compressed image no CompressedLine owns: the bytes of one, or a
 * codec's scratch (or the input line itself, for a verbatim copy) as
 * encode() builds it.
 */
struct LineView
{
    const std::uint8_t *data = nullptr;
    int size = 0;
    int encoding = 0;

    static LineView
    of(const CompressedLine &cl)
    {
        return {cl.bytes.data(), cl.size(), cl.encoding};
    }

    /** The one heap copy: a CompressedLine whose bytes.capacity()
     *  equals its size(). */
    CompressedLine
    toLine() const
    {
        CompressedLine cl;
        cl.bytes.assign(data, data + size);
        cl.encoding = encoding;
        return cl;
    }
};

/**
 * Instruction budget of one assist-warp subroutine invocation; used by the
 * CABA timing model to synthesize the subroutine issued into the pipeline.
 */
struct SubroutineCost
{
    int alu_ops = 0;    ///< SIMD ALU instructions (full-warp issue slots).
    int mem_ops = 0;    ///< LD/ST pipeline instructions (L1-local).
};

/** Interface implemented by BDI, FPC, C-Pack and BestOfAll. */
class Codec
{
  public:
    virtual ~Codec() = default;

    /**
     * Bytes of scratch any encode() may write: room for the three
     * candidate images BestOfAll builds side by side.
     */
    static constexpr int kScratchBytes = 4 * kLineSize;

    /** Human-readable algorithm name ("BDI", "FPC", "C-Pack"). */
    virtual std::string name() const = 0;

    /**
     * Compresses a kLineSize-byte line without allocating: builds the
     * image in @p scratch (kScratchBytes), or points at @p line itself
     * when no encoding shrinks it (a view of size kLineSize).
     */
    virtual LineView encode(const std::uint8_t *line,
                            std::uint8_t *scratch) const = 0;

    /** Expands the image @p in into the kLineSize-byte buffer @p out. */
    virtual void decode(const LineView &in, std::uint8_t *out) const = 0;

    /** encode() plus the one heap copy of the image. */
    CompressedLine
    compress(const std::uint8_t *line) const
    {
        std::uint8_t scratch[kScratchBytes];
        return encode(line, scratch).toLine();
    }

    /** decode() from @p cl's bytes. */
    void
    decompress(const CompressedLine &cl, std::uint8_t *out) const
    {
        decode(LineView::of(cl), out);
    }

    /** Dedicated-hardware decompression latency in core cycles. */
    virtual int hwDecompressLatency() const = 0;

    /** Dedicated-hardware compression latency in core cycles. */
    virtual int hwCompressLatency() const = 0;

    /** Assist-warp instruction budget to decompress a line stored
     *  with encoding @p encoding. */
    virtual SubroutineCost decompressCost(int encoding) const = 0;

    /** Assist-warp instruction budget to compress one line. */
    virtual SubroutineCost compressCost() const = 0;
};

} // namespace caba

#endif // CABA_COMPRESS_CODEC_H

/**
 * @file
 * C-Pack cache compression (Chen et al., IEEE TVLSI 2010), the third
 * algorithm the paper maps onto CABA (Section 4.1.3). Words are matched
 * against a small FIFO dictionary; full and partial matches get short
 * codes. Per the paper, we place the dictionary-independent metadata at
 * the head of the compressed line.
 */
#ifndef CABA_COMPRESS_CPACK_H
#define CABA_COMPRESS_CPACK_H

#include "compress/codec.h"

namespace caba {

/** C-Pack word codes. */
enum class CpackCode : int {
    Zzzz = 0,   ///< 00      all-zero word (2 bits)
    Xxxx = 1,   ///< 01      unmatched word, pushed to dictionary (2+32)
    Mmmm = 2,   ///< 10      full dictionary match (2+4)
    Mmxx = 3,   ///< 1100    upper-halfword match (4+4+16)
    Zzzx = 4,   ///< 1101    three zero bytes + one literal byte (4+8)
    Mmmx = 5,   ///< 1110    upper-3-byte match (4+4+8)
};

/**
 * C-Pack codec with a 16-entry FIFO dictionary rebuilt identically by the
 * decompressor (xxxx words are pushed in decode order, so no dictionary
 * needs to be stored).
 */
class CpackCodec final : public Codec
{
  public:
    std::string name() const override { return "C-Pack"; }
    CompressedLine compress(const std::uint8_t *line) const override;
    void decompress(const CompressedLine &cl,
                    std::uint8_t *out) const override;

    int hwDecompressLatency() const override { return 9; }
    int hwCompressLatency() const override { return 16; }

    SubroutineCost decompressCost(const CompressedLine &cl) const override;
    SubroutineCost compressCost() const override;

    /**
     * Bytes of scratch encode() may write: the worst-case image
     * (metadata byte, then 32 unmatched words of 2 + 32 bits) plus the
     * bitstream's 8-byte window slack.
     */
    static constexpr int kScratchBytes =
        1 + (kLineSize / 4 * 34 + 7) / 8 + 8;

    /** Smallest image of any line: metadata byte plus 32 2-bit codes. */
    static constexpr int kMinBytes = 1 + (kLineSize / 4 * 2 + 7) / 8;

    /**
     * compress() without the allocation: builds the image in @p scratch,
     * or points at @p line itself when it stays uncompressed.
     */
    LineView encode(const std::uint8_t *line, std::uint8_t *scratch) const;

    /** decompress() from a view of the compressed bytes. */
    void decode(const LineView &in, std::uint8_t *out) const;

    /** decompressCost() of a line with encoding @p encoding. */
    static SubroutineCost decodeCost(int encoding);

    /** Dictionary entries (words). */
    static constexpr int kDictEntries = 16;
};

} // namespace caba

#endif // CABA_COMPRESS_CPACK_H

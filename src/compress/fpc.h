/**
 * @file
 * Frequent Pattern Compression (Alameldeen & Wood, UW-Madison TR 2004),
 * the second algorithm the paper maps onto CABA (Section 4.1.3). Each
 * 32-bit word gets a 3-bit prefix naming one of eight frequent patterns,
 * followed by the pattern's payload; runs of zero words collapse.
 */
#ifndef CABA_COMPRESS_FPC_H
#define CABA_COMPRESS_FPC_H

#include "compress/codec.h"

namespace caba {

/** FPC word patterns (3-bit prefixes, in the TR's order). */
enum class FpcPattern : int {
    ZeroRun = 0,        ///< 1-8 consecutive zero words (3-bit length).
    Se4 = 1,            ///< 4-bit sign-extended word.
    Se8 = 2,            ///< 8-bit sign-extended word.
    Se16 = 3,           ///< 16-bit sign-extended word.
    ZeroPadHalf = 4,    ///< Significant upper halfword, zero lower half.
    TwoSeBytes = 5,     ///< Two halfwords, each a sign-extended byte.
    RepBytes = 6,       ///< Word with all four bytes identical.
    Raw = 7,            ///< Uncompressed 32-bit word.
};

/**
 * FPC codec. Compressed layout: one metadata byte (1 = FPC bitstream,
 * 0 = verbatim line) followed by the MSB-first bitstream.
 */
class FpcCodec final : public Codec
{
  public:
    std::string name() const override { return "FPC"; }
    CompressedLine compress(const std::uint8_t *line) const override;
    void decompress(const CompressedLine &cl,
                    std::uint8_t *out) const override;

    /** Five-stage decompression pipeline in the FPC TR. */
    int hwDecompressLatency() const override { return 5; }
    int hwCompressLatency() const override { return 8; }

    SubroutineCost decompressCost(const CompressedLine &cl) const override;
    SubroutineCost compressCost() const override;

    /**
     * Bytes of scratch encode() may write: the worst-case image
     * (metadata byte, then 32 raw words of 3 + 32 bits) plus the
     * bitstream's 8-byte window slack.
     */
    static constexpr int kScratchBytes =
        1 + (kLineSize / 4 * 35 + 7) / 8 + 8;

    /**
     * Smallest image of any line: metadata byte plus four zero runs of
     * eight words, 6 bits each.
     */
    static constexpr int kMinBytes = 1 + (kLineSize / 4 / 8 * 6 + 7) / 8;

    /**
     * compress() without the allocation: builds the image in @p scratch,
     * or points at @p line itself when it stays uncompressed.
     */
    LineView encode(const std::uint8_t *line, std::uint8_t *scratch) const;

    /** decompress() from a view of the compressed bytes. */
    void decode(const LineView &in, std::uint8_t *out) const;

    /** decompressCost() of a line with encoding @p encoding. */
    static SubroutineCost decodeCost(int encoding);
};

} // namespace caba

#endif // CABA_COMPRESS_FPC_H

/**
 * @file
 * Base-Delta-Immediate compression (Pekhimenko et al., PACT 2012), the
 * algorithm the paper maps to CABA in Section 4.1. A line is encoded as
 * one explicit base plus an implicit zero base and an array of narrow
 * deltas; a per-element mask selects the base (paper Figure 5).
 */
#ifndef CABA_COMPRESS_BDI_H
#define CABA_COMPRESS_BDI_H

#include "common/log.h"
#include "compress/codec.h"

namespace caba {

/** BDI encodings; the id is also the compressed line's metadata byte. */
enum class BdiEncoding : int {
    Zeros = 0,      ///< Line is all zero bytes.
    Repeat = 1,     ///< One 8-byte value repeated across the line.
    B8D1 = 2,       ///< 8-byte words, 1-byte deltas.
    B8D2 = 3,       ///< 8-byte words, 2-byte deltas.
    B8D4 = 4,       ///< 8-byte words, 4-byte deltas.
    B4D1 = 5,       ///< 4-byte words, 1-byte deltas.
    B4D2 = 6,       ///< 4-byte words, 2-byte deltas.
    B2D1 = 7,       ///< 2-byte words, 1-byte deltas.
    Uncompressed = 8,
    NumEncodings = 9,
};

/** Word size in bytes for a base-delta encoding. */
constexpr int
bdiWordSize(BdiEncoding enc)
{
    switch (enc) {
      case BdiEncoding::B8D1:
      case BdiEncoding::B8D2:
      case BdiEncoding::B8D4:
        return 8;
      case BdiEncoding::B4D1:
      case BdiEncoding::B4D2:
        return 4;
      case BdiEncoding::B2D1:
        return 2;
      default:
        CABA_PANIC("word size queried for non base-delta encoding");
    }
}

/** Delta size in bytes for a base-delta encoding. */
constexpr int
bdiDeltaSize(BdiEncoding enc)
{
    switch (enc) {
      case BdiEncoding::B8D1:
      case BdiEncoding::B4D1:
      case BdiEncoding::B2D1:
        return 1;
      case BdiEncoding::B8D2:
      case BdiEncoding::B4D2:
        return 2;
      case BdiEncoding::B8D4:
        return 4;
      default:
        CABA_PANIC("delta size queried for non base-delta encoding");
    }
}

/**
 * Compressed size of a base-delta encoding: metadata byte, one
 * base-select bit per word, the base, one delta per word.
 */
constexpr int
bdiEncodedSize(BdiEncoding enc)
{
    const int words = kLineSize / bdiWordSize(enc);
    return 1 + words / 8 + bdiWordSize(enc) + words * bdiDeltaSize(enc);
}

/**
 * BDI codec.
 *
 * Layout of the compressed bytes:
 *   [0]            metadata: encoding id
 *   [1..maskB]     base-select bitmask (1 bit/element; only B*D* forms)
 *   [..+wordB]     the explicit base (first non-zero element)
 *   [..]           one delta per element (vs. base or vs. zero per mask)
 *
 * Decompression is a masked vector add of deltas to the selected base,
 * exactly the operation the CABA subroutine performs on the SIMD pipeline.
 */
class BdiCodec final : public Codec
{
  public:
    std::string name() const override { return "BDI"; }
    LineView encode(const std::uint8_t *line,
                    std::uint8_t *scratch) const override;
    void decode(const LineView &in, std::uint8_t *out) const override;

    /** Paper Section 5: 1-cycle HW decompression, 5-cycle compression. */
    int hwDecompressLatency() const override { return 1; }
    int hwCompressLatency() const override { return 5; }

    SubroutineCost decompressCost(int encoding) const override;
    SubroutineCost compressCost() const override;

    /**
     * Restricts compression to one base-delta encoding plus Zeros/Repeat,
     * modelling the paper's single-encoding fast path for homogeneous
     * data (Section 4.1.2). Pass BdiEncoding::Uncompressed to disable.
     */
    void setPreferredEncoding(BdiEncoding enc) { preferred_ = enc; }

    /** Attempts exactly one base-delta encoding; internal + test hook. */
    bool tryEncode(const std::uint8_t *line, BdiEncoding enc,
                   CompressedLine *out) const;

    /** Bytes of scratch this codec's encode() writes. */
    static constexpr int kScratchBytes = kLineSize;

  private:
    BdiEncoding preferred_ = BdiEncoding::Uncompressed;
};

} // namespace caba

#endif // CABA_COMPRESS_BDI_H

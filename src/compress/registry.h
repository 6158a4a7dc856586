/**
 * @file
 * Algorithm enumeration, singleton codec registry, and the idealized
 * BestOfAll selector from Section 6.3 (per line, pick whichever of BDI /
 * FPC / C-Pack compresses best, with no selection overhead).
 */
#ifndef CABA_COMPRESS_REGISTRY_H
#define CABA_COMPRESS_REGISTRY_H

#include "compress/codec.h"

namespace caba {

/** Compression algorithm selector used throughout configs and benches. */
enum class Algorithm : int {
    None = 0,
    Bdi = 1,
    Fpc = 2,
    CPack = 3,
    BestOfAll = 4,
};

/** Printable name of @p algo. */
const char *algorithmName(Algorithm algo);

/**
 * Returns the process-wide codec instance for @p algo. @p algo must not
 * be Algorithm::None. Instances are stateless and shareable.
 */
const Codec &getCodec(Algorithm algo);

/**
 * Per-line best-of {BDI, FPC, C-Pack}. The winning algorithm's id is
 * folded into CompressedLine::encoding (algo*256 + inner encoding), which
 * models the paper's idealized no-overhead selection: the choice lives in
 * the per-line metadata, not in the transferred bytes.
 */
class BestOfAllCodec final : public Codec
{
  public:
    std::string name() const override { return "BestOfAll"; }
    LineView encode(const std::uint8_t *line,
                    std::uint8_t *scratch) const override;
    void decode(const LineView &in, std::uint8_t *out) const override;
    int hwDecompressLatency() const override;
    int hwCompressLatency() const override;
    SubroutineCost decompressCost(int encoding) const override;
    SubroutineCost compressCost() const override;

    /** Splits a folded encoding back into (algorithm, inner encoding). */
    static Algorithm innerAlgorithm(int folded_encoding);
    static int innerEncoding(int folded_encoding);
};

} // namespace caba

#endif // CABA_COMPRESS_REGISTRY_H

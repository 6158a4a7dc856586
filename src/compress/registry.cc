#include "compress/registry.h"

#include "common/log.h"
#include "compress/bdi.h"
#include "compress/cpack.h"
#include "compress/fpc.h"

namespace caba {

namespace {

const BdiCodec kBdi;
const FpcCodec kFpc;
const CpackCodec kCpack;
const BestOfAllCodec kBest;

/** The three concrete algorithms BestOfAll arbitrates between. */
constexpr Algorithm kConcrete[] = {Algorithm::Bdi, Algorithm::Fpc,
                                   Algorithm::CPack};

/** Calls @p fn with the concrete codec behind a BestOfAll encoding. */
template <typename Fn>
auto
withInner(int folded_encoding, Fn &&fn)
{
    switch (BestOfAllCodec::innerAlgorithm(folded_encoding)) {
      case Algorithm::Bdi: return fn(kBdi);
      case Algorithm::Fpc: return fn(kFpc);
      case Algorithm::CPack: return fn(kCpack);
      case Algorithm::None:
      case Algorithm::BestOfAll: break;
    }
    CABA_PANIC("no codec behind this BestOfAll encoding");
}

} // namespace

const char *
algorithmName(Algorithm algo)
{
    switch (algo) {
      case Algorithm::None: return "None";
      case Algorithm::Bdi: return "BDI";
      case Algorithm::Fpc: return "FPC";
      case Algorithm::CPack: return "C-Pack";
      case Algorithm::BestOfAll: return "BestOfAll";
    }
    return "?";
}

const Codec &
getCodec(Algorithm algo)
{
    switch (algo) {
      case Algorithm::Bdi: return kBdi;
      case Algorithm::Fpc: return kFpc;
      case Algorithm::CPack: return kCpack;
      case Algorithm::BestOfAll: return kBest;
      case Algorithm::None: break;
    }
    CABA_PANIC("no codec for Algorithm::None");
}

Algorithm
BestOfAllCodec::innerAlgorithm(int folded_encoding)
{
    return static_cast<Algorithm>(folded_encoding / 256);
}

int
BestOfAllCodec::innerEncoding(int folded_encoding)
{
    return folded_encoding % 256;
}

LineView
BestOfAllCodec::encode(const std::uint8_t *line, std::uint8_t *scratch) const
{
    // Each codec builds its image in its own part of the scratch, so the
    // winner, the earliest of BDI, FPC and C-Pack on a size tie, needs no
    // copy. A codec whose smallest image cannot beat the best so far is
    // skipped.
    static_assert(BdiCodec::kScratchBytes + FpcCodec::kScratchBytes +
                          CpackCodec::kScratchBytes <=
                      kScratchBytes,
                  "BestOfAll builds all three images in one scratch");
    std::uint8_t *fpc = scratch + BdiCodec::kScratchBytes;
    std::uint8_t *cpack = fpc + FpcCodec::kScratchBytes;
    LineView best = kBdi.encode(line, scratch);
    Algorithm best_algo = Algorithm::Bdi;
    if (best.size > FpcCodec::kMinBytes) {
        const LineView by_fpc = kFpc.encode(line, fpc);
        if (by_fpc.size < best.size) {
            best = by_fpc;
            best_algo = Algorithm::Fpc;
        }
    }
    if (best.size > CpackCodec::kMinBytes) {
        const LineView by_cpack = kCpack.encode(line, cpack);
        if (by_cpack.size < best.size) {
            best = by_cpack;
            best_algo = Algorithm::CPack;
        }
    }
    best.encoding += static_cast<int>(best_algo) * 256;
    return best;
}

void
BestOfAllCodec::decode(const LineView &in, std::uint8_t *out) const
{
    const LineView inner{in.data, in.size, innerEncoding(in.encoding)};
    withInner(in.encoding,
              [&](const auto &codec) { codec.decode(inner, out); });
}

int
BestOfAllCodec::hwDecompressLatency() const
{
    return kCpack.hwDecompressLatency();    // conservative: worst of three
}

int
BestOfAllCodec::hwCompressLatency() const
{
    return kCpack.hwCompressLatency();
}

SubroutineCost
BestOfAllCodec::decompressCost(int encoding) const
{
    const int inner = innerEncoding(encoding);
    return withInner(encoding, [inner](const auto &codec) {
        return codec.decompressCost(inner);
    });
}

SubroutineCost
BestOfAllCodec::compressCost() const
{
    // Testing all three algorithms on a store costs the sum of the parts.
    SubroutineCost total;
    for (Algorithm algo : kConcrete) {
        const SubroutineCost c = getCodec(algo).compressCost();
        total.alu_ops += c.alu_ops;
        total.mem_ops += c.mem_ops;
    }
    return total;
}

} // namespace caba

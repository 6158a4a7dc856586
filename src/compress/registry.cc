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

CompressedLine
BestOfAllCodec::compress(const std::uint8_t *line) const
{
    // Each codec builds its image on the stack; only the winner, the
    // earliest of BDI, FPC and C-Pack on a size tie, is copied out. So a
    // codec whose smallest image cannot beat the best so far is skipped.
    std::uint8_t bdi[BdiCodec::kScratchBytes];
    std::uint8_t fpc[FpcCodec::kScratchBytes];
    std::uint8_t cpack[CpackCodec::kScratchBytes];
    LineView best = kBdi.encode(line, bdi);
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
    return best.toLine();
}

void
BestOfAllCodec::decompress(const CompressedLine &cl, std::uint8_t *out) const
{
    const LineView inner{cl.bytes.data(), cl.size(),
                         innerEncoding(cl.encoding)};
    withInner(cl.encoding,
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
BestOfAllCodec::decompressCost(const CompressedLine &cl) const
{
    const int inner = innerEncoding(cl.encoding);
    return withInner(cl.encoding, [inner](const auto &codec) {
        return codec.decodeCost(inner);
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

#include "compress/fpc.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bitops.h"
#include "common/log.h"
#include "compress/bitstream.h"

namespace caba {

namespace {

constexpr int kWordsPerLine = kLineSize / 4;
constexpr std::uint8_t kMetaRaw = 0;
constexpr std::uint8_t kMetaFpc = 1;
/** Longest image encode() builds: metadata byte plus 32 raw words. */
constexpr int kMaxImageBytes =
    FpcCodec::kScratchBytes - BitWriter::kSlackBytes;

/** Width of a Raw word's code: the prefix and all 32 bits. */
constexpr std::uint32_t kRawBits = 3 + 32;

/**
 * The FPC code of each word of @p line: prefix and payload as one field
 * with its width, or for Raw the word itself with width kRawBits. Every
 * pattern is tested on every word with masks, no branches, so the
 * compiler runs the loop over several words per instruction; patterns
 * are applied from the last in the TR's order to the first, so the
 * first that holds wins. A zero word gets Se4; encode() emits zeros as
 * runs instead.
 */
void
codes(const std::uint8_t *line, std::uint32_t *fields, std::uint32_t *bits)
{
    for (int i = 0; i < kWordsPerLine; ++i) {
        const auto w = static_cast<std::uint32_t>(loadLe(line + i * 4, 4));
        const std::uint32_t lo = w & 0xFFFF;
        const std::uint32_t hi = w >> 16;
        std::uint32_t field = w;
        std::uint32_t width = kRawBits;
        const auto apply = [&](bool holds, FpcPattern pat,
                               std::uint32_t payload, std::uint32_t n) {
            const std::uint32_t m = 0u - std::uint32_t{holds};
            const std::uint32_t code =
                static_cast<std::uint32_t>(pat) << n | payload;
            field = (field & ~m) | (code & m);
            width = (width & ~m) | ((3 + n) & m);
        };
        apply(w == (w >> 8 | w << 24), FpcPattern::RepBytes, w & 0xFF, 8);
        apply((((lo + 0x80) | (hi + 0x80)) & 0xFF00) == 0,
              FpcPattern::TwoSeBytes, ((w >> 8) & 0xFF00) | (w & 0xFF),
              16);
        apply(lo == 0, FpcPattern::ZeroPadHalf, hi, 16);
        apply(w + 0x8000 < 0x10000, FpcPattern::Se16, lo, 16);
        apply(w + 0x80 < 0x100, FpcPattern::Se8, w & 0xFF, 8);
        apply(w + 0x8 < 0x10, FpcPattern::Se4, w & 0xF, 4);
        fields[i] = field;
        bits[i] = width;
    }
}

} // namespace

LineView
FpcCodec::encode(const std::uint8_t *line, std::uint8_t *scratch) const
{
    std::uint32_t fields[kWordsPerLine];
    std::uint32_t bits[kWordsPerLine];
    codes(line, fields, bits);
    // Zero words, whose runs' lengths are counts of trailing ones.
    std::uint32_t zero = 0;
    for (int i = 0; i < kWordsPerLine; ++i)
        zero |= std::uint32_t{loadLe(line + i * 4, 4) == 0} << i;

    BitWriter bw(scratch, kMaxImageBytes);
    bw.put(kMetaFpc, 8);
    int i = 0;
    while (i < kWordsPerLine) {
        if (zero >> i & 1) {
            // ZeroRun prefix (000) and the 3-bit run length - 1.
            const int run = std::min(8, std::countr_one(zero >> i));
            bw.put(static_cast<std::uint32_t>(run - 1), 6);
            i += run;
            continue;
        }
        if (bits[i] == kRawBits) {
            bw.put(static_cast<std::uint32_t>(FpcPattern::Raw), 3);
            bw.put(fields[i], 32);
        } else {
            bw.put(fields[i], static_cast<int>(bits[i]));
        }
        ++i;
    }
    if (bw.byteCount() >= kLineSize)
        return {line, kLineSize, kMetaRaw};
    return {scratch, bw.byteCount(), kMetaFpc};
}

CompressedLine
FpcCodec::compress(const std::uint8_t *line) const
{
    std::uint8_t scratch[kScratchBytes];
    return encode(line, scratch).toLine();
}

void
FpcCodec::decode(const LineView &in, std::uint8_t *out) const
{
    if (in.encoding == kMetaRaw) {
        CABA_CHECK(in.size == kLineSize, "bad raw FPC line");
        std::memcpy(out, in.data, kLineSize);
        return;
    }
    BitReader br(in.data + 1, in.size - 1);
    int i = 0;
    while (i < kWordsPerLine) {
        const auto pat = static_cast<FpcPattern>(br.get(3));
        std::uint32_t w = 0;
        switch (pat) {
          case FpcPattern::ZeroRun: {
            const int run = static_cast<int>(br.get(3)) + 1;
            CABA_CHECK(i + run <= kWordsPerLine, "FPC zero run overruns line");
            std::memset(out + i * 4, 0, static_cast<std::size_t>(run) * 4);
            i += run;
            continue;
          }
          case FpcPattern::Se4:
            w = static_cast<std::uint32_t>(
                static_cast<std::int32_t>(br.get(4) << 28) >> 28);
            break;
          case FpcPattern::Se8:
            w = static_cast<std::uint32_t>(signExtend(br.get(8), 1));
            break;
          case FpcPattern::Se16:
            w = static_cast<std::uint32_t>(signExtend(br.get(16), 2));
            break;
          case FpcPattern::ZeroPadHalf:
            w = br.get(16) << 16;
            break;
          case FpcPattern::TwoSeBytes: {
            const std::uint32_t p = br.get(16);
            const auto hi = static_cast<std::uint32_t>(
                signExtend(p >> 8, 1)) & 0xFFFFu;
            const auto lo = static_cast<std::uint32_t>(
                signExtend(p & 0xFF, 1)) & 0xFFFFu;
            w = (hi << 16) | lo;
            break;
          }
          case FpcPattern::RepBytes:
            w = br.get(8) * 0x01010101u;
            break;
          case FpcPattern::Raw:
            w = br.get(32);
            break;
        }
        storeLe(out + i * 4, 4, w);
        ++i;
    }
}

void
FpcCodec::decompress(const CompressedLine &cl, std::uint8_t *out) const
{
    decode(LineView::of(cl), out);
}

SubroutineCost
FpcCodec::decodeCost(int encoding)
{
    // Variable-length words serialize the unpack: the assist warp walks
    // prefix groups with the coalescing/address-generation logic (paper
    // Section 4.1.3), costing more issue slots than BDI's masked add.
    if (encoding == kMetaRaw)
        return {0, 0};
    return {6, 2};
}

SubroutineCost
FpcCodec::decompressCost(const CompressedLine &cl) const
{
    return decodeCost(cl.encoding);
}

SubroutineCost
FpcCodec::compressCost() const
{
    return {8, 2};
}

} // namespace caba

#include "reference_codecs.h"

#include <array>
#include <cstring>

#include "common/bitops.h"
#include "common/log.h"

namespace caba {
namespace ref {

namespace {

constexpr int kWordsPerLine = kLineSize / 4;
constexpr std::uint8_t kMetaRaw = 0;
constexpr std::uint8_t kMetaPacked = 1;

const BdiCodec kBdi;
const FpcCodec kFpc;
const CpackCodec kCpack;
const BestOfAllCodec kBest;

constexpr Algorithm kConcrete[] = {Algorithm::Bdi, Algorithm::Fpc,
                                   Algorithm::CPack};

/**
 * Base-delta encodings in the order BdiCodec::compress tries them. It
 * keeps the strictly smallest that fits, so this order only breaks the
 * one size tie: B2D1 (75 bytes) wins over B8D4 (75 bytes). It is not
 * sorted by size: B4D2 (73 bytes) comes after B2D1.
 */
constexpr std::array<BdiEncoding, 6> kBaseDeltaOrder = {
    BdiEncoding::B8D1, BdiEncoding::B4D1, BdiEncoding::B8D2,
    BdiEncoding::B2D1, BdiEncoding::B4D2, BdiEncoding::B8D4,
};

bool
lineIsZero(const std::uint8_t *line)
{
    std::uint64_t acc = 0;
    for (int i = 0; i < kLineSize; i += 8)
        acc |= loadLe(line + i, 8);
    return acc == 0;
}

bool
lineIsRepeated8(const std::uint8_t *line)
{
    const std::uint64_t first = loadLe(line, 8);
    std::uint64_t diff = 0;
    for (int i = 8; i < kLineSize; i += 8)
        diff |= loadLe(line + i, 8) ^ first;
    return diff == 0;
}

CompressedLine
verbatim(std::uint8_t meta, const std::uint8_t *line)
{
    CompressedLine cl;
    cl.encoding = meta;
    cl.bytes.assign(kLineSize, 0);
    std::memcpy(cl.bytes.data(), line, kLineSize);
    return cl;
}

CompressedLine
packed(const BitWriter &bw, const std::uint8_t *line)
{
    const int size = 1 + static_cast<int>(bw.bytes().size());
    if (size >= kLineSize)
        return verbatim(kMetaRaw, line);
    CompressedLine cl;
    cl.encoding = kMetaPacked;
    cl.bytes.reserve(size);
    cl.bytes.push_back(kMetaPacked);
    cl.bytes.insert(cl.bytes.end(), bw.bytes().begin(), bw.bytes().end());
    return cl;
}

/** C-Pack's 16-entry FIFO dictionary, scanned once per match kind. */
class Dict
{
  public:
    int size() const { return count_; }
    std::uint32_t at(int i) const { return entries_[i]; }

    void
    push(std::uint32_t w)
    {
        entries_[head_] = w;
        head_ = (head_ + 1) % 16;
        if (count_ < 16)
            ++count_;
    }

    int
    findFull(std::uint32_t w) const
    {
        for (int i = 0; i < count_; ++i)
            if (entries_[i] == w)
                return i;
        return -1;
    }

    int
    findPartial(std::uint32_t w, int bytes) const
    {
        const std::uint32_t mask = bytes == 3 ? 0xFFFFFF00u : 0xFFFF0000u;
        for (int i = 0; i < count_; ++i)
            if ((entries_[i] & mask) == (w & mask))
                return i;
        return -1;
    }

  private:
    std::array<std::uint32_t, 16> entries_{};
    int head_ = 0;
    int count_ = 0;
};

} // namespace

void
BitWriter::put(std::uint32_t value, int bits)
{
    CABA_CHECK(bits >= 0 && bits <= 32, "bad field width");
    while (bits > 0) {
        const int off = bit_count_ & 7;
        if (off == 0)
            bytes_.push_back(0);
        const int take = bits < 8 - off ? bits : 8 - off;
        const std::uint32_t chunk =
            (value >> (bits - take)) & ((1u << take) - 1u);
        bytes_.back() |= static_cast<std::uint8_t>(chunk << (8 - off - take));
        bit_count_ += take;
        bits -= take;
    }
}

std::uint32_t
BitReader::get(int bits)
{
    CABA_CHECK(bits >= 0 && bits <= 32, "bad field width");
    CABA_CHECK(pos_ + bits <= size_bits_, "bitstream overrun");
    std::uint32_t v = 0;
    int left = bits;
    while (left > 0) {
        const int off = pos_ & 7;
        const int take = left < 8 - off ? left : 8 - off;
        const std::uint32_t chunk =
            (static_cast<std::uint32_t>(data_[pos_ >> 3]) >>
             (8 - off - take)) &
            ((1u << take) - 1u);
        v = (v << take) | chunk;
        pos_ += take;
        left -= take;
    }
    return v;
}

// ------------------------------------------------------------------ BDI

bool
BdiCodec::tryEncode(const std::uint8_t *line, BdiEncoding enc,
                    CompressedLine *out) const
{
    const int word_b = bdiWordSize(enc);
    const int delta_b = bdiDeltaSize(enc);
    const int n = kLineSize / word_b;
    const int mask_b = n / 8;

    std::uint64_t base = 0;
    bool have_base = false;
    std::array<std::uint64_t, 64> vals{};
    for (int i = 0; i < n; ++i) {
        vals[i] = loadLe(line + i * word_b, word_b);
        if (!have_base && vals[i] != 0) {
            base = vals[i];
            have_base = true;
        }
    }

    const std::uint64_t word_mask =
        word_b == 8 ? ~std::uint64_t{0}
                    : ((std::uint64_t{1} << (8 * word_b)) - 1);
    std::array<std::int64_t, 64> delta{};
    std::uint64_t use_base_mask = 0;
    bool ok = true;
    for (int i = 0; i < n; ++i) {
        const std::int64_t d_base =
            signExtend((vals[i] - base) & word_mask, word_b);
        const std::int64_t d_zero = signExtend(vals[i], word_b);
        const bool base_fits = have_base && fitsSigned(d_base, delta_b);
        const bool zero_fits = fitsSigned(d_zero, delta_b);
        delta[i] = base_fits ? d_base : d_zero;
        use_base_mask |= base_fits ? std::uint64_t{1} << i : 0;
        ok = ok && (base_fits || zero_fits);
    }
    if (!ok)
        return false;

    const int total = 1 + mask_b + word_b + n * delta_b;
    if (total >= kLineSize)
        return false;

    out->encoding = static_cast<int>(enc);
    out->bytes.assign(static_cast<std::size_t>(total), 0);
    std::uint8_t *p = out->bytes.data();
    p[0] = static_cast<std::uint8_t>(enc);
    storeLe(p + 1, mask_b, use_base_mask);
    storeLe(p + 1 + mask_b, word_b, base);
    for (int i = 0; i < n; ++i) {
        storeLe(p + 1 + mask_b + word_b + i * delta_b, delta_b,
                static_cast<std::uint64_t>(delta[i]));
    }
    return true;
}

CompressedLine
BdiCodec::compress(const std::uint8_t *line) const
{
    CompressedLine cl;
    if (lineIsZero(line)) {
        cl.encoding = static_cast<int>(BdiEncoding::Zeros);
        cl.bytes = {static_cast<std::uint8_t>(BdiEncoding::Zeros)};
        return cl;
    }
    if (lineIsRepeated8(line)) {
        cl.encoding = static_cast<int>(BdiEncoding::Repeat);
        cl.bytes.assign(9, 0);
        cl.bytes[0] = static_cast<std::uint8_t>(BdiEncoding::Repeat);
        std::memcpy(cl.bytes.data() + 1, line, 8);
        return cl;
    }
    CompressedLine best;
    for (BdiEncoding enc : kBaseDeltaOrder) {
        CompressedLine cand;
        if (tryEncode(line, enc, &cand) &&
            (best.bytes.empty() || cand.size() < best.size())) {
            best = std::move(cand);
        }
    }
    if (!best.bytes.empty())
        return best;
    return verbatim(static_cast<std::uint8_t>(BdiEncoding::Uncompressed),
                    line);
}

void
BdiCodec::decompress(const CompressedLine &cl, std::uint8_t *out) const
{
    const auto enc = static_cast<BdiEncoding>(cl.encoding);
    const std::uint8_t *p = cl.bytes.data();
    switch (enc) {
      case BdiEncoding::Zeros:
        std::memset(out, 0, kLineSize);
        return;
      case BdiEncoding::Repeat:
        for (int i = 0; i < kLineSize; i += 8)
            std::memcpy(out + i, p + 1, 8);
        return;
      case BdiEncoding::Uncompressed:
        CABA_CHECK(cl.size() == kLineSize, "bad uncompressed BDI line");
        std::memcpy(out, p, kLineSize);
        return;
      default:
        break;
    }
    const int word_b = bdiWordSize(enc);
    const int delta_b = bdiDeltaSize(enc);
    const int n = kLineSize / word_b;
    const int mask_b = n / 8;
    CABA_CHECK(cl.size() == 1 + mask_b + word_b + n * delta_b,
               "BDI compressed size mismatch");
    const std::uint64_t use_base_mask = loadLe(p + 1, mask_b);
    const std::int64_t base =
        signExtend(loadLe(p + 1 + mask_b, word_b), word_b);
    for (int i = 0; i < n; ++i) {
        const std::int64_t d = signExtend(
            loadLe(p + 1 + mask_b + word_b + i * delta_b, delta_b), delta_b);
        const std::int64_t v = (use_base_mask >> i & 1) ? base + d : d;
        storeLe(out + i * word_b, word_b, static_cast<std::uint64_t>(v));
    }
}

SubroutineCost
BdiCodec::decompressCost(const CompressedLine &cl) const
{
    const auto enc = static_cast<BdiEncoding>(cl.encoding);
    switch (enc) {
      case BdiEncoding::Zeros:
        return {1, 1};
      case BdiEncoding::Repeat:
        return {1, 2};
      case BdiEncoding::Uncompressed:
        return {0, 0};
      default:
        return {1 + static_cast<int>(divCeil(
                        static_cast<std::uint64_t>(kLineSize /
                                                   bdiWordSize(enc)),
                        kWarpSize)),
                2};
    }
}

// ------------------------------------------------------------------ FPC

CompressedLine
FpcCodec::compress(const std::uint8_t *line) const
{
    BitWriter bw;
    int i = 0;
    while (i < kWordsPerLine) {
        const auto w = static_cast<std::uint32_t>(loadLe(line + i * 4, 4));
        if (w == 0) {
            int run = 1;
            while (i + run < kWordsPerLine && run < 8 &&
                   loadLe(line + (i + run) * 4, 4) == 0) {
                ++run;
            }
            bw.put(0, 3);
            bw.put(static_cast<std::uint32_t>(run - 1), 3);
            i += run;
            continue;
        }
        const auto s = static_cast<std::int32_t>(w);
        const auto lo = static_cast<std::int16_t>(w & 0xFFFF);
        const auto hi = static_cast<std::int16_t>(w >> 16);
        if (s >= -8 && s < 8) {
            bw.put(1, 3);
            bw.put(w & 0xF, 4);
        } else if (s >= -128 && s < 128) {
            bw.put(2, 3);
            bw.put(w & 0xFF, 8);
        } else if (s >= -32768 && s < 32768) {
            bw.put(3, 3);
            bw.put(w & 0xFFFF, 16);
        } else if ((w & 0xFFFF) == 0) {
            bw.put(4, 3);
            bw.put(w >> 16, 16);
        } else if (lo >= -128 && lo < 128 && hi >= -128 && hi < 128) {
            bw.put(5, 3);
            bw.put(((w >> 8) & 0xFF00) | (w & 0xFF), 16);
        } else if (w == (w & 0xFF) * 0x01010101u) {
            bw.put(6, 3);
            bw.put(w & 0xFF, 8);
        } else {
            bw.put(7, 3);
            bw.put(w, 32);
        }
        ++i;
    }
    return packed(bw, line);
}

void
FpcCodec::decompress(const CompressedLine &cl, std::uint8_t *out) const
{
    if (cl.encoding == kMetaRaw) {
        CABA_CHECK(cl.size() == kLineSize, "bad raw FPC line");
        std::memcpy(out, cl.bytes.data(), kLineSize);
        return;
    }
    BitReader br(cl.bytes.data() + 1, cl.size() - 1);
    int i = 0;
    while (i < kWordsPerLine) {
        const std::uint32_t pat = br.get(3);
        std::uint32_t w = 0;
        switch (pat) {
          case 0: {
            const int run = static_cast<int>(br.get(3)) + 1;
            for (int k = 0; k < run; ++k)
                storeLe(out + (i + k) * 4, 4, 0);
            i += run;
            continue;
          }
          case 1: {
            const std::uint32_t p = br.get(4);
            w = (p & 0x8) ? (p | 0xFFFFFFF0u) : p;
            break;
          }
          case 2:
            w = static_cast<std::uint32_t>(signExtend(br.get(8), 1));
            break;
          case 3:
            w = static_cast<std::uint32_t>(signExtend(br.get(16), 2));
            break;
          case 4:
            w = br.get(16) << 16;
            break;
          case 5: {
            const std::uint32_t p = br.get(16);
            const auto hi =
                static_cast<std::uint32_t>(signExtend(p >> 8, 1)) & 0xFFFFu;
            const auto lo =
                static_cast<std::uint32_t>(signExtend(p & 0xFF, 1)) &
                0xFFFFu;
            w = (hi << 16) | lo;
            break;
          }
          case 6:
            w = br.get(8) * 0x01010101u;
            break;
          default:
            w = br.get(32);
            break;
        }
        storeLe(out + i * 4, 4, w);
        ++i;
    }
}

SubroutineCost
FpcCodec::decompressCost(const CompressedLine &cl) const
{
    if (cl.encoding == kMetaRaw)
        return {0, 0};
    return {6, 2};
}

// --------------------------------------------------------------- C-Pack

CompressedLine
CpackCodec::compress(const std::uint8_t *line) const
{
    BitWriter bw;
    Dict dict;
    for (int i = 0; i < kWordsPerLine; ++i) {
        const auto w = static_cast<std::uint32_t>(loadLe(line + i * 4, 4));
        if (w == 0) {
            bw.put(0b00, 2);
            continue;
        }
        if ((w & 0xFFFFFF00u) == 0) {
            bw.put(0b1101, 4);
            bw.put(w & 0xFF, 8);
            continue;
        }
        int idx = dict.findFull(w);
        if (idx >= 0) {
            bw.put(0b10, 2);
            bw.put(static_cast<std::uint32_t>(idx), 4);
            continue;
        }
        idx = dict.findPartial(w, 3);
        if (idx >= 0) {
            bw.put(0b1110, 4);
            bw.put(static_cast<std::uint32_t>(idx), 4);
            bw.put(w & 0xFF, 8);
            continue;
        }
        idx = dict.findPartial(w, 2);
        if (idx >= 0) {
            bw.put(0b1100, 4);
            bw.put(static_cast<std::uint32_t>(idx), 4);
            bw.put(w & 0xFFFF, 16);
            continue;
        }
        bw.put(0b01, 2);
        bw.put(w, 32);
        dict.push(w);
    }
    return packed(bw, line);
}

void
CpackCodec::decompress(const CompressedLine &cl, std::uint8_t *out) const
{
    if (cl.encoding == kMetaRaw) {
        CABA_CHECK(cl.size() == kLineSize, "bad raw C-Pack line");
        std::memcpy(out, cl.bytes.data(), kLineSize);
        return;
    }
    BitReader br(cl.bytes.data() + 1, cl.size() - 1);
    Dict dict;
    for (int i = 0; i < kWordsPerLine; ++i) {
        std::uint32_t w = 0;
        if (br.get(1) == 0) {
            if (br.get(1) == 0) {
                w = 0;
            } else {
                w = br.get(32);
                dict.push(w);
            }
        } else if (br.get(1) == 0) {
            const int idx = static_cast<int>(br.get(4));
            CABA_CHECK(idx < dict.size(), "C-Pack dict index out of range");
            w = dict.at(idx);
        } else {
            const std::uint32_t sub = br.get(2);
            if (sub == 0b00) {
                const int idx = static_cast<int>(br.get(4));
                CABA_CHECK(idx < dict.size(), "C-Pack dict index");
                w = (dict.at(idx) & 0xFFFF0000u) | br.get(16);
            } else if (sub == 0b01) {
                w = br.get(8);
            } else if (sub == 0b10) {
                const int idx = static_cast<int>(br.get(4));
                CABA_CHECK(idx < dict.size(), "C-Pack dict index");
                w = (dict.at(idx) & 0xFFFFFF00u) | br.get(8);
            } else {
                CABA_PANIC("reserved C-Pack code 1111");
            }
        }
        storeLe(out + i * 4, 4, w);
    }
}

SubroutineCost
CpackCodec::decompressCost(const CompressedLine &cl) const
{
    if (cl.encoding == kMetaRaw)
        return {0, 0};
    return {8, 2};
}

// ------------------------------------------------------------ BestOfAll

CompressedLine
BestOfAllCodec::compress(const std::uint8_t *line) const
{
    CompressedLine best;
    Algorithm best_algo = Algorithm::Bdi;
    for (Algorithm algo : kConcrete) {
        CompressedLine cand = ref::getCodec(algo).compress(line);
        if (best.bytes.empty() || cand.size() < best.size()) {
            best = std::move(cand);
            best_algo = algo;
        }
    }
    best.encoding = static_cast<int>(best_algo) * 256 + best.encoding;
    return best;
}

void
BestOfAllCodec::decompress(const CompressedLine &cl, std::uint8_t *out) const
{
    CompressedLine inner;
    inner.bytes = cl.bytes;
    inner.encoding = cl.encoding % 256;
    ref::getCodec(static_cast<Algorithm>(cl.encoding / 256))
        .decompress(inner, out);
}

SubroutineCost
BestOfAllCodec::decompressCost(const CompressedLine &cl) const
{
    CompressedLine inner;
    inner.bytes = cl.bytes;
    inner.encoding = cl.encoding % 256;
    return ref::getCodec(static_cast<Algorithm>(cl.encoding / 256))
        .decompressCost(inner);
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
    CABA_PANIC("no reference codec for Algorithm::None");
}

} // namespace ref
} // namespace caba

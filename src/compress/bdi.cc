#include "compress/bdi.h"

#include <cstring>
#include <initializer_list>
#include <type_traits>

#include "common/bitops.h"
#include "common/log.h"

namespace caba {

namespace {

/**
 * One base-delta encoding with its word and delta widths fixed at
 * compile time. Words are unsigned and differences wrap at the word
 * width (the adder that reconstructs values truncates to the word size,
 * so a delta that wraps the signed boundary is still exact).
 */
template <BdiEncoding kEnc>
struct BaseDelta
{
    static constexpr int kWordBytes = bdiWordSize(kEnc);
    static constexpr int kDeltaBytes = bdiDeltaSize(kEnc);
    static constexpr int kWords = kLineSize / kWordBytes;
    static constexpr int kMaskBytes = kWords / 8;
    static constexpr int kDeltaAt = 1 + kMaskBytes + kWordBytes;
    static constexpr int kSize = bdiEncodedSize(kEnc);
    static_assert(kDeltaBytes < kWordBytes && kWords <= 64);
    static_assert(kSize == kDeltaAt + kWords * kDeltaBytes);
    static_assert(kSize < kLineSize, "an encoding must save bytes");

    using Word = std::conditional_t<
        kWordBytes == 8, std::uint64_t,
        std::conditional_t<kWordBytes == 4, std::uint32_t, std::uint16_t>>;

    /** Offset that maps the signed delta range onto [0, kRange). */
    static constexpr Word kHalf = static_cast<Word>(
        Word{1} << (8 * kDeltaBytes - 1));
    static constexpr Word kRange = static_cast<Word>(
        Word{1} << (8 * kDeltaBytes));

    static Word
    word(const std::uint8_t *line, int i)
    {
        return static_cast<Word>(loadLe(line + i * kWordBytes, kWordBytes));
    }

    /** True if @p d, read as a signed word, fits a signed delta. */
    static bool
    fits(Word d)
    {
        return static_cast<Word>(d + kHalf) < kRange;
    }

    /**
     * The first non-zero word is the explicit base; an implicit zero
     * base covers small immediates (paper Section 4.1.1). A line with
     * no non-zero word has no explicit base (returns 0).
     */
    static Word
    base(const std::uint8_t *line)
    {
        Word b = 0;
        for (int i = 0; i < kWords && b == 0; ++i)
            b = word(line, i);
        return b;
    }

    /**
     * Writes the encoding of @p line to @p out and returns its size, or
     * returns 0 when some word is within a delta of neither base.
     */
    static int
    encode(const std::uint8_t *line, std::uint8_t *out)
    {
        const Word b = base(line);
        const bool have_base = b != 0;
        for (int i = 0; i < kWords; ++i) {
            const Word v = word(line, i);
            if (!(have_base && fits(static_cast<Word>(v - b))) && !fits(v))
                return 0;
        }
        std::uint64_t use_base = 0;
        for (int i = 0; i < kWords; ++i) {
            const Word v = word(line, i);
            const Word d = static_cast<Word>(v - b);
            const bool from_base = have_base && fits(d);
            use_base |= std::uint64_t{from_base} << i;
            storeLe(out + kDeltaAt + i * kDeltaBytes, kDeltaBytes,
                    from_base ? d : v);
        }
        out[0] = static_cast<std::uint8_t>(kEnc);
        storeLe(out + 1, kMaskBytes, use_base);
        storeLe(out + 1 + kMaskBytes, kWordBytes, b);
        return kSize;
    }

    /** Masked vector add of the deltas to the selected bases. */
    static void
    decode(const std::uint8_t *p, std::uint8_t *out)
    {
        const std::uint64_t use_base = loadLe(p + 1, kMaskBytes);
        const Word b = static_cast<Word>(loadLe(p + 1 + kMaskBytes,
                                                kWordBytes));
        for (int i = 0; i < kWords; ++i) {
            const auto d = static_cast<Word>(signExtend(
                loadLe(p + kDeltaAt + i * kDeltaBytes, kDeltaBytes),
                kDeltaBytes));
            const Word v = static_cast<Word>(
                d + ((use_base >> i & 1) ? b : Word{0}));
            storeLe(out + i * kWordBytes, kWordBytes, v);
        }
    }
};

constexpr bool
increasingSize(std::initializer_list<BdiEncoding> encs)
{
    int prev = 0;
    for (BdiEncoding enc : encs) {
        if (bdiEncodedSize(enc) < prev)
            return false;
        prev = bdiEncodedSize(enc);
    }
    return true;
}

/**
 * Size of the first of @p kEncs whose kernel fits, or 0. Listed in
 * increasing compressed size, the first fit is the smallest encoding;
 * on a size tie the one listed first wins.
 */
template <BdiEncoding... kEncs>
int
firstFit(const std::uint8_t *line, std::uint8_t *out)
{
    static_assert(increasingSize({kEncs...}),
                  "base-delta kernels must be tried in increasing size");
    int size = 0;
    (void)(((size = BaseDelta<kEncs>::encode(line, out)) != 0) || ...);
    return size;
}

/** Runs the kernel of base-delta encoding @p enc alone. */
int
encodeAs(BdiEncoding enc, const std::uint8_t *line, std::uint8_t *out)
{
    switch (enc) {
      case BdiEncoding::B8D1:
        return BaseDelta<BdiEncoding::B8D1>::encode(line, out);
      case BdiEncoding::B8D2:
        return BaseDelta<BdiEncoding::B8D2>::encode(line, out);
      case BdiEncoding::B8D4:
        return BaseDelta<BdiEncoding::B8D4>::encode(line, out);
      case BdiEncoding::B4D1:
        return BaseDelta<BdiEncoding::B4D1>::encode(line, out);
      case BdiEncoding::B4D2:
        return BaseDelta<BdiEncoding::B4D2>::encode(line, out);
      case BdiEncoding::B2D1:
        return BaseDelta<BdiEncoding::B2D1>::encode(line, out);
      default:
        CABA_PANIC("word size queried for non base-delta encoding");
    }
}

} // namespace

bool
BdiCodec::tryEncode(const std::uint8_t *line, BdiEncoding enc,
                    CompressedLine *out) const
{
    std::uint8_t scratch[kScratchBytes];
    const int size = encodeAs(enc, line, scratch);
    if (size == 0)
        return false;
    *out = LineView{scratch, size, static_cast<int>(enc)}.toLine();
    return true;
}

LineView
BdiCodec::encode(const std::uint8_t *line, std::uint8_t *scratch) const
{
    // One pass finds both the all-zero and the repeated-8-byte line.
    const std::uint64_t first = loadLe(line, 8);
    std::uint64_t any = first;
    std::uint64_t diff = 0;
    for (int i = 8; i < kLineSize; i += 8) {
        const std::uint64_t w = loadLe(line + i, 8);
        any |= w;
        diff |= w ^ first;
    }
    if (any == 0) {
        scratch[0] = static_cast<std::uint8_t>(BdiEncoding::Zeros);
        return {scratch, 1, static_cast<int>(BdiEncoding::Zeros)};
    }
    if (diff == 0) {
        scratch[0] = static_cast<std::uint8_t>(BdiEncoding::Repeat);
        std::memcpy(scratch + 1, line, 8);
        return {scratch, 9, static_cast<int>(BdiEncoding::Repeat)};
    }

    const int size =
        preferred_ != BdiEncoding::Uncompressed
            ? encodeAs(preferred_, line, scratch)
            : firstFit<BdiEncoding::B8D1, BdiEncoding::B4D1,
                       BdiEncoding::B8D2, BdiEncoding::B4D2,
                       BdiEncoding::B2D1, BdiEncoding::B8D4>(line, scratch);
    if (size > 0)
        return {scratch, size, scratch[0]};
    return {line, kLineSize, static_cast<int>(BdiEncoding::Uncompressed)};
}

void
BdiCodec::decode(const LineView &in, std::uint8_t *out) const
{
    const auto enc = static_cast<BdiEncoding>(in.encoding);
    switch (enc) {
      case BdiEncoding::Zeros:
        std::memset(out, 0, kLineSize);
        return;
      case BdiEncoding::Repeat:
        for (int i = 0; i < kLineSize; i += 8)
            std::memcpy(out + i, in.data + 1, 8);
        return;
      case BdiEncoding::Uncompressed:
        CABA_CHECK(in.size == kLineSize, "bad uncompressed BDI line");
        std::memcpy(out, in.data, kLineSize);
        return;
      default:
        break;
    }
    CABA_CHECK(in.size == bdiEncodedSize(enc),
               "BDI compressed size mismatch");
    switch (enc) {
      case BdiEncoding::B8D1:
        return BaseDelta<BdiEncoding::B8D1>::decode(in.data, out);
      case BdiEncoding::B8D2:
        return BaseDelta<BdiEncoding::B8D2>::decode(in.data, out);
      case BdiEncoding::B8D4:
        return BaseDelta<BdiEncoding::B8D4>::decode(in.data, out);
      case BdiEncoding::B4D1:
        return BaseDelta<BdiEncoding::B4D1>::decode(in.data, out);
      case BdiEncoding::B4D2:
        return BaseDelta<BdiEncoding::B4D2>::decode(in.data, out);
      case BdiEncoding::B2D1:
        return BaseDelta<BdiEncoding::B2D1>::decode(in.data, out);
      default:
        CABA_PANIC("word size queried for non base-delta encoding");
    }
}

SubroutineCost
BdiCodec::decompressCost(int encoding) const
{
    // Paper Section 4.1.2: load compressed words into assist-warp
    // registers, masked vector add of deltas to bases, store the expanded
    // line back to the cache. One 32-wide ALU op covers 32 deltas; 8-byte
    // words need only 8 lanes but still one issue slot.
    const auto enc = static_cast<BdiEncoding>(encoding);
    switch (enc) {
      case BdiEncoding::Zeros:
        return {1, 1};          // splat zero + store line
      case BdiEncoding::Repeat:
        return {1, 2};          // load value, splat + store
      case BdiEncoding::Uncompressed:
        return {0, 0};          // never deployed
      default: {
        const int n = kLineSize / bdiWordSize(enc);
        const int add_ops = static_cast<int>(divCeil(n, kWarpSize));
        // load compressed line (1), unpack deltas (1), masked add(s),
        // store uncompressed line (1 wide store).
        return {1 + add_ops, 2};
      }
    }
}

SubroutineCost
BdiCodec::compressCost() const
{
    // Test one encoding in the common case (Section 4.1.2): load line,
    // compute deltas, per-lane fit predicate + global AND reduction, pack,
    // store. Charged whether or not the encoding succeeds.
    return {4, 2};
}

} // namespace caba

#include "compress/cpack.h"

#include <array>
#include <cstring>

#include "common/bitops.h"
#include "common/log.h"
#include "compress/bitstream.h"

namespace caba {

namespace {

constexpr int kWordsPerLine = kLineSize / 4;
constexpr std::uint8_t kMetaRaw = 0;
constexpr std::uint8_t kMetaCpack = 1;
/** Longest image encode() builds: metadata byte plus 32 xxxx words. */
constexpr int kMaxImageBytes =
    CpackCodec::kScratchBytes - BitWriter::kSlackBytes;

/** FIFO dictionary shared (by construction order) by both directions. */
class Dict
{
  public:
    /** The best dictionary match for a word: its code and slot. */
    struct Match
    {
        CpackCode code = CpackCode::Xxxx;   ///< Xxxx: no match.
        std::uint32_t slot = 0;
    };

    int
    size() const
    {
        return count_;
    }

    std::uint32_t at(int i) const { return entries_[i]; }

    void
    push(std::uint32_t w)
    {
        entries_[head_] = w;
        const int shift = 16 * (head_ % 4);
        std::uint64_t &lanes = uppers_[static_cast<std::size_t>(head_ / 4)];
        lanes = (lanes & ~(std::uint64_t{0xFFFF} << shift)) |
                std::uint64_t{w >> 16} << shift;
        head_ = (head_ + 1) % CpackCodec::kDictEntries;
        if (count_ < CpackCodec::kDictEntries)
            ++count_;
    }

    /**
     * One scan over the filled slots finds the full, 3-byte and 2-byte
     * matches together, each at its lowest slot. A full match outranks
     * both partial ones, so the first found ends the scan.
     */
    Match
    find(std::uint32_t w) const
    {
        if (!mayMatch(w))
            return {};
        int upper3 = -1;
        int upper2 = -1;
        for (int i = 0; i < count_; ++i) {
            const std::uint32_t x = entries_[i] ^ w;
            if (x >> 16 != 0)
                continue;
            if (x == 0)
                return {CpackCode::Mmmm, static_cast<std::uint32_t>(i)};
            if (upper3 < 0 && x >> 8 == 0)
                upper3 = i;
            if (upper2 < 0)
                upper2 = i;
        }
        if (upper3 >= 0)
            return {CpackCode::Mmmx, static_cast<std::uint32_t>(upper3)};
        if (upper2 >= 0)
            return {CpackCode::Mmxx, static_cast<std::uint32_t>(upper2)};
        return {};
    }

  private:
    /**
     * False when no slot's upper halfword equals @p w's, so no match of
     * any kind exists: a zero-lane test over four slots per 64-bit word
     * (SWAR). Slots not yet filled hold 0 and may answer true for a word
     * whose upper halfword is 0; find()'s scan sorts that out.
     */
    bool
    mayMatch(std::uint32_t w) const
    {
        constexpr std::uint64_t kLow = 0x0001000100010001ull;
        constexpr std::uint64_t kHigh = 0x8000800080008000ull;
        const std::uint64_t key = std::uint64_t{w >> 16} * kLow;
        std::uint64_t zero_lane = 0;
        for (std::uint64_t lanes : uppers_) {
            const std::uint64_t x = lanes ^ key;
            zero_lane |= (x - kLow) & ~x & kHigh;
        }
        return zero_lane != 0;
    }

    std::array<std::uint32_t, CpackCodec::kDictEntries> entries_{};
    /** Upper halfwords of the slots, slot i in lane i % 4 of word i / 4. */
    std::array<std::uint64_t, CpackCodec::kDictEntries / 4> uppers_{};
    int head_ = 0;
    int count_ = 0;
};

} // namespace

LineView
CpackCodec::encode(const std::uint8_t *line, std::uint8_t *scratch) const
{
    BitWriter bw(scratch, kMaxImageBytes);
    bw.put(kMetaCpack, 8);
    Dict dict;
    for (int i = 0; i < kWordsPerLine; ++i) {
        const auto w = static_cast<std::uint32_t>(loadLe(line + i * 4, 4));
        if (w == 0) {
            bw.put(0b00, 2);                            // zzzz
            continue;
        }
        if ((w & 0xFFFFFF00u) == 0) {
            bw.put(0b1101u << 8 | w, 12);               // zzzx
            continue;
        }
        const Dict::Match m = dict.find(w);
        switch (m.code) {
          case CpackCode::Mmmm:
            bw.put(0b10u << 4 | m.slot, 6);
            break;
          case CpackCode::Mmmx:
            bw.put((0b1110u << 4 | m.slot) << 8 | (w & 0xFF), 16);
            break;
          case CpackCode::Mmxx:
            bw.put((0b1100u << 4 | m.slot) << 16 | (w & 0xFFFF), 24);
            break;
          default:
            bw.put(0b01, 2);
            bw.put(w, 32);
            dict.push(w);
            break;
        }
    }
    if (bw.byteCount() >= kLineSize)
        return {line, kLineSize, kMetaRaw};
    return {scratch, bw.byteCount(), kMetaCpack};
}

void
CpackCodec::decode(const LineView &in, std::uint8_t *out) const
{
    if (in.encoding == kMetaRaw) {
        CABA_CHECK(in.size == kLineSize, "bad raw C-Pack line");
        std::memcpy(out, in.data, kLineSize);
        return;
    }
    BitReader br(in.data + 1, in.size - 1);
    Dict dict;
    for (int i = 0; i < kWordsPerLine; ++i) {
        std::uint32_t w = 0;
        switch (br.get(2)) {
          case 0b00:                                    // zzzz
            break;
          case 0b01:                                    // xxxx
            w = br.get(32);
            dict.push(w);
            break;
          case 0b10: {                                  // mmmm
            const int idx = static_cast<int>(br.get(4));
            CABA_CHECK(idx < dict.size(), "C-Pack dict index out of range");
            w = dict.at(idx);
            break;
          }
          default: {
            const std::uint32_t sub = br.get(2);
            if (sub == 0b00) {                          // 1100 mmxx
                const int idx = static_cast<int>(br.get(4));
                CABA_CHECK(idx < dict.size(), "C-Pack dict index");
                w = (dict.at(idx) & 0xFFFF0000u) | br.get(16);
            } else if (sub == 0b01) {                   // 1101 zzzx
                w = br.get(8);
            } else if (sub == 0b10) {                   // 1110 mmmx
                const int idx = static_cast<int>(br.get(4));
                CABA_CHECK(idx < dict.size(), "C-Pack dict index");
                w = (dict.at(idx) & 0xFFFFFF00u) | br.get(8);
            } else {
                CABA_PANIC("reserved C-Pack code 1111");
            }
            break;
          }
        }
        storeLe(out + i * 4, 4, w);
    }
}

SubroutineCost
CpackCodec::decompressCost(int encoding) const
{
    // Dictionary reconstruction serializes decode; costliest of the three
    // algorithms per invocation (paper Section 4.1.3).
    if (encoding == kMetaRaw)
        return {0, 0};
    return {8, 2};
}

SubroutineCost
CpackCodec::compressCost() const
{
    return {10, 2};
}

} // namespace caba

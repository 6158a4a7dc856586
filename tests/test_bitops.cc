/**
 * @file
 * Unit tests for the bit-level helpers every codec builds on.
 */
#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitops.h"
#include "common/rng.h"
#include "common/types.h"
#include "compress/bitstream.h"

namespace caba {
namespace {

TEST(Bitops, LoadStoreRoundTripAllWidths)
{
    Rng rng(1);
    std::uint8_t buf[8];
    for (int width : {1, 2, 4, 8}) {
        for (int trial = 0; trial < 1000; ++trial) {
            const std::uint64_t v =
                rng.next() & (width == 8 ? ~0ull
                                         : ((1ull << (8 * width)) - 1));
            storeLe(buf, width, v);
            EXPECT_EQ(loadLe(buf, width), v);
        }
    }
}

TEST(Bitops, FitsSignedBoundaries)
{
    EXPECT_TRUE(fitsSigned(127, 1));
    EXPECT_FALSE(fitsSigned(128, 1));
    EXPECT_TRUE(fitsSigned(-128, 1));
    EXPECT_FALSE(fitsSigned(-129, 1));
    EXPECT_TRUE(fitsSigned(32767, 2));
    EXPECT_FALSE(fitsSigned(32768, 2));
    EXPECT_TRUE(fitsSigned(-2147483648ll, 4));
    EXPECT_FALSE(fitsSigned(2147483648ll, 4));
    EXPECT_TRUE(fitsSigned(1ll << 62, 8));
}

TEST(Bitops, FitsUnsignedBoundaries)
{
    EXPECT_TRUE(fitsUnsigned(255, 1));
    EXPECT_FALSE(fitsUnsigned(256, 1));
    EXPECT_TRUE(fitsUnsigned(~0ull, 8));
}

TEST(Bitops, SignExtend)
{
    EXPECT_EQ(signExtend(0xFF, 1), -1);
    EXPECT_EQ(signExtend(0x7F, 1), 127);
    EXPECT_EQ(signExtend(0x8000, 2), -32768);
    EXPECT_EQ(signExtend(0xFFFFFFFF, 4), -1);
}

/** Bits of @p v's low @p bits bits, MSB first: the oracle for packing. */
void
appendBits(std::vector<bool> *bits, std::uint32_t v, int width)
{
    for (int b = width - 1; b >= 0; --b)
        bits->push_back((v >> b & 1) != 0);
}

std::vector<std::uint8_t>
packBits(const std::vector<bool> &bits)
{
    std::vector<std::uint8_t> bytes((bits.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < bits.size(); ++i)
        if (bits[i])
            bytes[i / 8] |= static_cast<std::uint8_t>(0x80 >> (i % 8));
    return bytes;
}

TEST(Bitstream, RoundTripMixedWidths)
{
    Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        std::uint8_t buf[256 + BitWriter::kSlackBytes];
        BitWriter bw(buf, 256);
        std::vector<std::pair<std::uint32_t, int>> fields;
        for (int i = 0; i < 50; ++i) {
            const int bits = 1 + static_cast<int>(rng.below(32));
            const std::uint32_t v = static_cast<std::uint32_t>(
                rng.next() & ((bits == 32) ? ~0u : ((1u << bits) - 1)));
            fields.emplace_back(v, bits);
            bw.put(v, bits);
        }
        BitReader br(bw.data(), bw.byteCount());
        for (const auto &[v, bits] : fields)
            EXPECT_EQ(br.get(bits), v);
    }
}

TEST(Bitstream, BitCountMatchesBytes)
{
    std::uint8_t buf[4 + BitWriter::kSlackBytes];
    BitWriter bw(buf, 4);
    bw.put(0x5, 3);
    bw.put(0x1F, 5);
    EXPECT_EQ(bw.bitCount(), 8);
    EXPECT_EQ(bw.byteCount(), 1);
    bw.put(1, 1);
    EXPECT_EQ(bw.byteCount(), 2);
}

TEST(Bitstream, EveryWidthAtEveryBitOffset)
{
    // A field of each width 0-32 after a lead-in of 0-7 bits, between
    // all-ones neighbours: the packed bytes match a bit-by-bit oracle,
    // and the reader cuts every field back out exactly.
    Rng rng(17);
    for (int offset = 0; offset < 8; ++offset) {
        for (int width = 0; width <= 32; ++width) {
            for (std::uint32_t v :
                 {0u, ~0u, static_cast<std::uint32_t>(rng.next())}) {
                std::uint8_t buf[16 + BitWriter::kSlackBytes];
                std::memset(buf, 0x5A, sizeof buf);
                BitWriter bw(buf, 16);
                std::vector<bool> bits;
                bw.put(~0u, offset);
                appendBits(&bits, ~0u, offset);
                bw.put(v, width);
                appendBits(&bits, v, width);
                bw.put(~0u, 9);
                appendBits(&bits, ~0u, 9);

                const std::vector<std::uint8_t> want = packBits(bits);
                ASSERT_EQ(bw.bitCount(), static_cast<int>(bits.size()));
                ASSERT_EQ(bw.byteCount(), static_cast<int>(want.size()));
                ASSERT_EQ(std::memcmp(bw.data(), want.data(), want.size()),
                          0)
                    << "offset " << offset << " width " << width;

                BitReader br(want.data(), static_cast<int>(want.size()));
                const std::uint32_t low =
                    width == 32 ? v : v & ((1u << width) - 1u);
                EXPECT_EQ(br.get(offset), (1u << offset) - 1u);
                EXPECT_EQ(br.get(width), low)
                    << "offset " << offset << " width " << width;
                EXPECT_EQ(br.get(9), 0x1FFu);
                EXPECT_EQ(br.position(), static_cast<int>(bits.size()));
            }
        }
    }
}

TEST(Bitstream, ReadEndingOnTheLastByteStaysInBounds)
{
    // Streams of 1-16 bytes in heap buffers of exactly that size (so a
    // window load past the end is a heap overflow under ASan), read by
    // fields whose last one ends on the final byte, at every width.
    Rng rng(19);
    for (int size = 1; size <= 16; ++size) {
        for (int width = 1; width <= 32; ++width) {
            const auto data = std::make_unique<std::uint8_t[]>(
                static_cast<std::size_t>(size));
            for (int i = 0; i < size; ++i)
                data[i] = static_cast<std::uint8_t>(rng.next());
            std::vector<bool> bits;
            for (int i = 0; i < size; ++i)
                appendBits(&bits, data[i], 8);

            BitReader br(data.get(), size);
            int pos = 0;
            const int total = size * 8;
            while (pos < total) {
                const int w = std::min(width, total - pos);
                std::uint32_t want = 0;
                for (int b = 0; b < w; ++b)
                    want = want << 1 | (bits[pos + b] ? 1u : 0u);
                ASSERT_EQ(br.get(w), want)
                    << "size " << size << " width " << width << " at "
                    << pos;
                pos += w;
            }
            EXPECT_EQ(br.position(), total);
            EXPECT_EQ(br.get(0), 0u);
        }
    }
}

TEST(Bitstream, FullFpcStreamOfRawWords)
{
    // The longest FPC stream: 32 raw words, each a 3-bit prefix and 32
    // payload bits, 1120 bits in all.
    constexpr int kBytes = 1120 / 8;
    std::uint8_t buf[kBytes + BitWriter::kSlackBytes];
    BitWriter bw(buf, kBytes);
    Rng rng(23);
    std::uint32_t words[32];
    for (std::uint32_t &w : words) {
        w = static_cast<std::uint32_t>(rng.next());
        bw.put(0b111, 3);
        bw.put(w, 32);
    }
    EXPECT_EQ(bw.bitCount(), 1120);
    ASSERT_EQ(bw.byteCount(), kBytes);

    BitReader br(bw.data(), bw.byteCount());
    for (std::uint32_t w : words) {
        EXPECT_EQ(br.get(3), 0b111u);
        EXPECT_EQ(br.get(32), w);
    }
    EXPECT_EQ(br.position(), 1120);
}

TEST(BitstreamDeathTest, ReadPastEndPanics)
{
    const std::uint8_t data[2] = {0xAB, 0xCD};
    BitReader br(data, 2);
    br.get(12);
    EXPECT_DEATH(br.get(5), "bitstream overrun");
}

TEST(BitstreamDeathTest, WidthOver32Panics)
{
    const std::uint8_t data[8] = {};
    BitReader br(data, 8);
    EXPECT_DEATH(br.get(33), "bad field width");
    std::uint8_t buf[8 + BitWriter::kSlackBytes];
    BitWriter bw(buf, 8);
    EXPECT_DEATH(bw.put(0, 33), "bad field width");
}

TEST(BitstreamDeathTest, WriteOverCapacityPanics)
{
    std::uint8_t buf[2 + BitWriter::kSlackBytes];
    BitWriter bw(buf, 2);
    bw.put(0xFFF, 12);
    EXPECT_DEATH(bw.put(0x1F, 5), "bitstream overrun");
}

TEST(Types, AlignHelpers)
{
    EXPECT_EQ(lineAddr(0), 0u);
    EXPECT_EQ(lineAddr(kLineSize - 1), 0u);
    EXPECT_EQ(lineAddr(kLineSize), static_cast<Addr>(kLineSize));
    EXPECT_EQ(alignUp(1, 64), 64u);
    EXPECT_EQ(divCeil(65, 32), 3u);
    EXPECT_EQ(divCeil(64, 32), 2u);
}

} // namespace
} // namespace caba

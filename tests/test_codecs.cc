/**
 * @file
 * Codec unit and property tests: exact round-trips for every algorithm
 * over every data profile, encoding-specific behaviour (Figure 5), and
 * the size relations the bandwidth model relies on.
 */
#include <cstring>

#include <gtest/gtest.h>

#include "common/bitops.h"
#include "common/rng.h"
#include "compress/bdi.h"
#include "compress/cpack.h"
#include "compress/fpc.h"
#include "compress/registry.h"
#include "workloads/data_profile.h"

namespace caba {
namespace {

class CodecRoundTrip
    : public ::testing::TestWithParam<std::tuple<Algorithm, DataProfile>>
{};

TEST_P(CodecRoundTrip, ExactOverProfiles)
{
    const auto [algo, profile] = GetParam();
    const Codec &codec = getCodec(algo);
    std::uint8_t line[kLineSize];
    std::uint8_t out[kLineSize];
    for (int i = 0; i < 500; ++i) {
        generateProfileLine(profile, 99, static_cast<Addr>(i) * kLineSize,
                            line);
        const CompressedLine cl = codec.compress(line);
        ASSERT_GE(cl.size(), 1);
        ASSERT_LE(cl.size(), kLineSize);
        std::memset(out, 0xAB, kLineSize);
        codec.decompress(cl, out);
        ASSERT_EQ(std::memcmp(line, out, kLineSize), 0)
            << codec.name() << " on " << dataProfileName(profile)
            << " line " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllProfiles, CodecRoundTrip,
    ::testing::Combine(
        ::testing::Values(Algorithm::Bdi, Algorithm::Fpc, Algorithm::CPack,
                          Algorithm::BestOfAll),
        ::testing::Values(DataProfile::Zeros, DataProfile::Pointer,
                          DataProfile::SmallInt, DataProfile::Fp32,
                          DataProfile::Text, DataProfile::Sparse,
                          DataProfile::Random)));

TEST(Bdi, ZeroLineIsOneByte)
{
    std::uint8_t line[kLineSize] = {};
    const CompressedLine cl = getCodec(Algorithm::Bdi).compress(line);
    EXPECT_EQ(cl.size(), 1);
    EXPECT_EQ(cl.encoding, static_cast<int>(BdiEncoding::Zeros));
    EXPECT_EQ(cl.bursts(), 1);
}

TEST(Bdi, RepeatedValueIsNineBytes)
{
    std::uint8_t line[kLineSize];
    const std::uint64_t v = 0xDEADBEEFCAFEF00Dull;
    for (int i = 0; i < kLineSize / 8; ++i)
        std::memcpy(line + i * 8, &v, 8);
    const CompressedLine cl = getCodec(Algorithm::Bdi).compress(line);
    EXPECT_EQ(cl.size(), 9);
    EXPECT_EQ(cl.encoding, static_cast<int>(BdiEncoding::Repeat));
}

TEST(Bdi, Figure5PvcLineCompressesToOneBurst)
{
    // The paper's Figure 5 example: 8-byte values alternating between
    // zero-based immediates and base 0x80001d000 plus small deltas,
    // extended to our 128-byte line (16 values). Layout: 1B metadata +
    // 2B base-select mask + 8B base + 16 1B deltas = 27 bytes -> a
    // single 32B DRAM burst (the paper's 64B example yields 17B).
    std::uint64_t vals[16];
    for (int i = 0; i < 16; ++i) {
        vals[i] = (i % 2 == 0)
            ? static_cast<std::uint64_t>(i) * 8
            : 0x80001d000ull + static_cast<std::uint64_t>(i) * 4;
    }
    std::uint8_t line[kLineSize];
    std::memcpy(line, vals, kLineSize);
    const CompressedLine cl = getCodec(Algorithm::Bdi).compress(line);
    EXPECT_EQ(cl.encoding, static_cast<int>(BdiEncoding::B8D1));
    EXPECT_EQ(cl.size(), 27);
    EXPECT_EQ(cl.bursts(), 1);
}

TEST(Bdi, IncompressibleFallsBackToRaw)
{
    Rng rng(3);
    std::uint8_t line[kLineSize];
    for (int i = 0; i < kLineSize / 8; ++i) {
        const std::uint64_t v = rng.next();
        std::memcpy(line + i * 8, &v, 8);
    }
    const CompressedLine cl = getCodec(Algorithm::Bdi).compress(line);
    EXPECT_TRUE(cl.isUncompressed());
    EXPECT_EQ(cl.bursts(), kBurstsPerLine);
}

TEST(Bdi, EveryEncodingRoundTripsWhenApplicable)
{
    BdiCodec codec;
    Rng rng(11);
    std::uint8_t line[kLineSize];
    std::uint8_t out[kLineSize];
    const BdiEncoding encs[] = {BdiEncoding::B8D1, BdiEncoding::B8D2,
                                BdiEncoding::B8D4, BdiEncoding::B4D1,
                                BdiEncoding::B4D2, BdiEncoding::B2D1};
    for (BdiEncoding enc : encs) {
        const int word = bdiWordSize(enc);
        const int delta = bdiDeltaSize(enc);
        for (int trial = 0; trial < 100; ++trial) {
            const std::uint64_t base =
                rng.next() &
                (word == 8 ? ~0ull : ((1ull << (8 * word)) - 1));
            for (int i = 0; i < kLineSize / word; ++i) {
                const std::int64_t lim =
                    delta >= 8 ? 0 : (std::int64_t{1} << (8 * delta - 1));
                const std::int64_t d = lim == 0
                    ? 0
                    : static_cast<std::int64_t>(rng.below(
                          static_cast<std::uint64_t>(lim))) - lim / 2;
                storeLe(line + i * word, word,
                        base + static_cast<std::uint64_t>(d));
            }
            CompressedLine cl;
            ASSERT_TRUE(codec.tryEncode(line, enc, &cl));
            codec.decompress(cl, out);
            ASSERT_EQ(std::memcmp(line, out, kLineSize), 0);
        }
    }
}

TEST(Bdi, PreferredEncodingFastPath)
{
    BdiCodec codec;
    codec.setPreferredEncoding(BdiEncoding::B8D1);
    std::uint64_t vals[16];
    for (int i = 0; i < 16; ++i)
        vals[i] = 100 + static_cast<std::uint64_t>(i);
    std::uint8_t line[kLineSize];
    std::memcpy(line, vals, kLineSize);
    const CompressedLine cl = codec.compress(line);
    EXPECT_EQ(cl.encoding, static_cast<int>(BdiEncoding::B8D1));
}

TEST(Fpc, ZeroLineCollapsesToRuns)
{
    std::uint8_t line[kLineSize] = {};
    const CompressedLine cl = getCodec(Algorithm::Fpc).compress(line);
    // 32 zero words = four runs of 8: 4 * 6 bits -> 3 bytes + metadata,
    // the smallest image FPC can build (BestOfAll relies on the bound).
    EXPECT_EQ(cl.size(), 4);
    EXPECT_EQ(FpcCodec::kMinBytes, 4);
}

TEST(Fpc, SmallIntsUseNarrowPatterns)
{
    std::uint8_t line[kLineSize];
    for (int i = 0; i < kLineSize / 4; ++i)
        storeLe(line + i * 4, 4, static_cast<std::uint64_t>(i + 1));
    const CompressedLine cl = getCodec(Algorithm::Fpc).compress(line);
    // 32 words x (3+4 or 3+8 bits) is far below 128 bytes.
    EXPECT_LT(cl.size(), 50);
}

TEST(Fpc, NegativeValuesSignExtend)
{
    std::uint8_t line[kLineSize];
    std::uint8_t out[kLineSize];
    for (int i = 0; i < kLineSize / 4; ++i) {
        storeLe(line + i * 4, 4,
                static_cast<std::uint32_t>(-1 - i * 17));
    }
    const Codec &fpc = getCodec(Algorithm::Fpc);
    const CompressedLine cl = fpc.compress(line);
    fpc.decompress(cl, out);
    EXPECT_EQ(std::memcmp(line, out, kLineSize), 0);
}

TEST(Fpc, RepeatedBytesPattern)
{
    std::uint8_t line[kLineSize];
    std::uint8_t out[kLineSize];
    for (int i = 0; i < kLineSize / 4; ++i)
        storeLe(line + i * 4, 4, 0x41414141u);
    const Codec &fpc = getCodec(Algorithm::Fpc);
    const CompressedLine cl = fpc.compress(line);
    EXPECT_LT(cl.size(), 50);   // 11 bits per word
    fpc.decompress(cl, out);
    EXPECT_EQ(std::memcmp(line, out, kLineSize), 0);
}

TEST(CPack, ZeroLineIsAllZzzzCodes)
{
    std::uint8_t line[kLineSize] = {};
    const CompressedLine cl = getCodec(Algorithm::CPack).compress(line);
    // 32 2-bit zzzz codes -> 8 bytes + metadata, the smallest image
    // C-Pack can build (BestOfAll relies on the bound).
    EXPECT_EQ(cl.size(), 9);
    EXPECT_EQ(CpackCodec::kMinBytes, 9);
}

TEST(CPack, DictionaryHitsShrinkRepetitions)
{
    std::uint8_t line[kLineSize];
    // Four distinct words repeated four times each: first occurrences go
    // to the dictionary, later ones become 6-bit mmmm codes.
    const std::uint32_t words[4] = {0xDEAD0001u, 0xBEEF0002u, 0xCAFE0003u,
                                    0xF00D0004u};
    for (int i = 0; i < kLineSize / 4; ++i)
        storeLe(line + i * 4, 4, words[i % 4]);
    const CompressedLine cl = getCodec(Algorithm::CPack).compress(line);
    EXPECT_LT(cl.size(), 45);
    std::uint8_t out[kLineSize];
    getCodec(Algorithm::CPack).decompress(cl, out);
    EXPECT_EQ(std::memcmp(line, out, kLineSize), 0);
}

TEST(CPack, PartialMatchesCoverSharedHighBytes)
{
    std::uint8_t line[kLineSize];
    for (int i = 0; i < kLineSize / 4; ++i)
        storeLe(line + i * 4, 4, 0x3F800000u | static_cast<unsigned>(i));
    const CompressedLine cl = getCodec(Algorithm::CPack).compress(line);
    // 1 xxxx + 31 mmmx codes: 34 + 31*16 bits + metadata ~= 67 bytes.
    EXPECT_LT(cl.size(), 75);
}

TEST(BestOfAll, NeverWorseThanAnySingleAlgorithm)
{
    std::uint8_t line[kLineSize];
    for (DataProfile p :
         {DataProfile::Pointer, DataProfile::SmallInt, DataProfile::Text,
          DataProfile::Fp32, DataProfile::Sparse, DataProfile::Random}) {
        for (int i = 0; i < 100; ++i) {
            generateProfileLine(p, 5, static_cast<Addr>(i) * kLineSize,
                                line);
            const int best =
                getCodec(Algorithm::BestOfAll).compress(line).size();
            for (Algorithm a :
                 {Algorithm::Bdi, Algorithm::Fpc, Algorithm::CPack}) {
                EXPECT_LE(best, getCodec(a).compress(line).size());
            }
        }
    }
}

TEST(BestOfAll, EncodingRecordsWinningAlgorithm)
{
    std::uint8_t line[kLineSize] = {};
    const CompressedLine cl =
        getCodec(Algorithm::BestOfAll).compress(line);
    const Algorithm inner = BestOfAllCodec::innerAlgorithm(cl.encoding);
    EXPECT_TRUE(inner == Algorithm::Bdi || inner == Algorithm::Fpc ||
                inner == Algorithm::CPack);
}

TEST(Codecs, HwLatenciesMatchPaper)
{
    // Section 5: BDI decompression/compression = 1/5 cycles.
    EXPECT_EQ(getCodec(Algorithm::Bdi).hwDecompressLatency(), 1);
    EXPECT_EQ(getCodec(Algorithm::Bdi).hwCompressLatency(), 5);
    // FPC and C-Pack are slower (Section 6.3 discussion).
    EXPECT_GT(getCodec(Algorithm::Fpc).hwDecompressLatency(), 1);
    EXPECT_GT(getCodec(Algorithm::CPack).hwDecompressLatency(),
              getCodec(Algorithm::Fpc).hwDecompressLatency() - 1);
}

TEST(Codecs, DecompressCostScalesWithComplexity)
{
    std::uint8_t line[kLineSize];
    generateProfileLine(DataProfile::SmallInt, 9, 0, line);
    const CompressedLine bdi = getCodec(Algorithm::Bdi).compress(line);
    const CompressedLine fpc = getCodec(Algorithm::Fpc).compress(line);
    const CompressedLine cpk = getCodec(Algorithm::CPack).compress(line);
    const int bdi_ops =
        getCodec(Algorithm::Bdi).decompressCost(bdi.encoding).alu_ops;
    const int fpc_ops =
        getCodec(Algorithm::Fpc).decompressCost(fpc.encoding).alu_ops;
    const int cpk_ops =
        getCodec(Algorithm::CPack).decompressCost(cpk.encoding).alu_ops;
    EXPECT_LT(bdi_ops, fpc_ops);
    EXPECT_LE(fpc_ops, cpk_ops);
}

TEST(Codecs, BurstsComputation)
{
    // Section 4.3.2: a line moves in 1-4 GDDR5 bursts.
    const struct
    {
        std::size_t size;
        int bursts;
    } cases[] = {{1, 1}, {32, 1}, {33, 2}, {64, 2}, {96, 3}, {128, 4}};
    for (const auto &c : cases) {
        CompressedLine cl;
        cl.bytes.assign(c.size, 0);
        EXPECT_EQ(cl.bursts(), c.bursts) << c.size << " bytes";
    }
}

} // namespace
} // namespace caba

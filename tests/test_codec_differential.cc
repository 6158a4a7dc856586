/**
 * @file
 * Differential test: the shipped word-parallel codecs against the
 * byte-at-a-time reference codecs they replaced (reference_codecs.h).
 * On every input line each codec must match its reference in encoding,
 * size and bytes; own exactly its size from compress()
 * (bytes.capacity() == size()); decompress to the input; and cost the
 * same assist-warp budget to decompress.
 */
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/bitops.h"
#include "common/rng.h"
#include "compress/bdi.h"
#include "compress/bitstream.h"
#include "compress/registry.h"
#include "reference_codecs.h"
#include "workloads/app.h"
#include "workloads/data_profile.h"
#include "workloads/workload.h"

namespace caba {
namespace {

constexpr Algorithm kAlgos[] = {Algorithm::Bdi, Algorithm::Fpc,
                                Algorithm::CPack, Algorithm::BestOfAll};

constexpr BdiEncoding kBaseDelta[] = {
    BdiEncoding::B8D1, BdiEncoding::B8D2, BdiEncoding::B8D4,
    BdiEncoding::B4D1, BdiEncoding::B4D2, BdiEncoding::B2D1};

::testing::AssertionResult
sameAsReference(const std::uint8_t *line)
{
    for (Algorithm algo : kAlgos) {
        const char *name = algorithmName(algo);
        const CompressedLine got = getCodec(algo).compress(line);
        const CompressedLine want = ref::getCodec(algo).compress(line);
        if (got.encoding != want.encoding)
            return ::testing::AssertionFailure()
                   << name << ": encoding " << got.encoding << ", reference "
                   << want.encoding;
        if (got.bytes != want.bytes)
            return ::testing::AssertionFailure()
                   << name << ": " << got.size() << " bytes differ from the "
                   << want.size() << "-byte reference";
        if (got.bytes.capacity() != got.bytes.size())
            return ::testing::AssertionFailure()
                   << name << ": capacity " << got.bytes.capacity()
                   << " for " << got.size() << " bytes";
        std::uint8_t out[kLineSize];
        std::memset(out, 0xAB, kLineSize);
        getCodec(algo).decompress(got, out);
        if (std::memcmp(out, line, kLineSize) != 0)
            return ::testing::AssertionFailure()
                   << name << ": does not decompress to its input";
        const SubroutineCost cost =
            getCodec(algo).decompressCost(got.encoding);
        const SubroutineCost want_cost =
            ref::getCodec(algo).decompressCost(want);
        if (cost.alu_ops != want_cost.alu_ops ||
            cost.mem_ops != want_cost.mem_ops)
            return ::testing::AssertionFailure()
                   << name << ": decompressCost differs from the reference";
    }
    return ::testing::AssertionSuccess();
}

/** Each single base-delta kernel against the reference's. */
::testing::AssertionResult
sameKernelsAsReference(const std::uint8_t *line)
{
    const BdiCodec bdi;
    const ref::BdiCodec ref_bdi;
    for (BdiEncoding enc : kBaseDelta) {
        CompressedLine got, want;
        const bool fits = bdi.tryEncode(line, enc, &got);
        if (fits != ref_bdi.tryEncode(line, enc, &want))
            return ::testing::AssertionFailure()
                   << "encoding " << static_cast<int>(enc)
                   << ": fit differs from the reference";
        if (fits &&
            (got.bytes != want.bytes || got.encoding != want.encoding ||
             got.bytes.capacity() != got.bytes.size()))
            return ::testing::AssertionFailure()
                   << "encoding " << static_cast<int>(enc)
                   << ": bytes differ from the reference";
    }
    return ::testing::AssertionSuccess();
}

void
corpusMatchesReference(std::uint64_t seed)
{
    // The first 2048 lines of every app's first load stream, which
    // Workload places at 1 << 33: the benchmark's codec corpus.
    constexpr int kLinesPerApp = 2048;
    const Addr base = Addr{1} << 33;
    std::uint8_t line[kLineSize];
    for (const AppDescriptor &app : compressionApps()) {
        const Workload wl(app, 0.1, seed);
        const LineGenerator gen = wl.lineGenerator();
        for (int i = 0; i < kLinesPerApp; ++i) {
            gen(base + static_cast<Addr>(i) * kLineSize, line);
            ASSERT_TRUE(sameAsReference(line))
                << app.name << " line " << i << " seed " << seed;
        }
    }
}

TEST(CodecDifferential, LineGeneratorCorpusDefaultSeed)
{
    corpusMatchesReference(0x5EED);
}

TEST(CodecDifferential, LineGeneratorCorpusHeldOutSeed)
{
    corpusMatchesReference(90210);
}

TEST(CodecDifferential, EveryDataProfile)
{
    const DataProfile profiles[] = {
        DataProfile::Zeros,  DataProfile::Pointer, DataProfile::SmallInt,
        DataProfile::Fp32,   DataProfile::Text,    DataProfile::Sparse,
        DataProfile::Index,  DataProfile::Random};
    std::uint8_t line[kLineSize];
    for (DataProfile profile : profiles) {
        for (std::uint64_t seed : {1ull, 0x5EEDull, 90210ull}) {
            for (int i = 0; i < 500; ++i) {
                generateProfileLine(profile, seed,
                                    static_cast<Addr>(i) * kLineSize, line);
                ASSERT_TRUE(sameAsReference(line))
                    << dataProfileName(profile) << " line " << i;
                ASSERT_TRUE(sameKernelsAsReference(line))
                    << dataProfileName(profile) << " line " << i;
            }
        }
    }
}

/**
 * A line of @p width-byte elements, each drawn from a mix of the shapes
 * the codecs tell apart: zeros, near a shared base, small immediates,
 * repeated bytes, half-zero words, copies and near-copies of earlier
 * elements (C-Pack dictionary hits), and random values.
 */
void
randomLine(Rng &rng, std::uint8_t *line)
{
    static constexpr int kWidths[] = {2, 4, 8};
    const int width = kWidths[rng.below(3)];
    const std::uint64_t mask =
        width == 8 ? ~0ull : (std::uint64_t{1} << (8 * width)) - 1;
    const std::uint64_t base = rng.next();
    // Per-line weights, so some lines are nearly uniform in one shape.
    const int kinds = 1 + static_cast<int>(rng.below(9));
    const int n = kLineSize / width;
    for (int i = 0; i < n; ++i) {
        const int delta_bits = 1 << (2 + rng.below(4));    // 4..32
        const std::uint64_t delta =
            rng.next() & ((std::uint64_t{1} << (delta_bits - 1)) - 1);
        const bool negative = rng.below(2) != 0;
        std::uint64_t v = 0;
        switch (rng.below(static_cast<std::uint64_t>(kinds))) {
          case 0: v = 0; break;
          case 1: v = negative ? base - delta : base + delta; break;
          case 2: v = negative ? 0 - delta : delta; break;
          case 3: v = (rng.next() & 0xFF) * 0x0101010101010101ull; break;
          case 4: v = rng.next() << (4 * width); break;
          case 5:
            v = i > 0 ? loadLe(line + rng.below(static_cast<std::uint64_t>(
                                          i)) * width, width)
                      : base;
            break;
          case 6:
            v = i > 0 ? loadLe(line + rng.below(static_cast<std::uint64_t>(
                                          i)) * width, width) ^
                            (rng.next() & 0xFFFF)
                      : base;
            break;
          case 7: v = rng.next() & 0xFF; break;
          default: v = rng.next(); break;
        }
        storeLe(line + i * width, width, v & mask);
    }
}

TEST(CodecDifferential, RandomizedLines)
{
    Rng rng(0xD1FF);
    std::uint8_t line[kLineSize];
    for (int trial = 0; trial < 20000; ++trial) {
        randomLine(rng, line);
        ASSERT_TRUE(sameAsReference(line)) << "trial " << trial;
        ASSERT_TRUE(sameKernelsAsReference(line)) << "trial " << trial;
    }
}

TEST(CodecDifferential, LinesFittingSeveralEncodings)
{
    // Words near one base with deltas that fit every narrower delta
    // width too, at every word width: each line fits more than one
    // base-delta encoding, so the choice between them is what is tested.
    Rng rng(0x5122);
    std::uint8_t line[kLineSize];
    int multi_fit = 0;
    for (BdiEncoding enc : kBaseDelta) {
        const int word = bdiWordSize(enc);
        const int delta = bdiDeltaSize(enc);
        for (int trial = 0; trial < 500; ++trial) {
            const std::uint64_t base = rng.next() | 0x100;
            const auto max_bits = static_cast<std::uint64_t>(8 * delta - 1);
            const int bits = 1 + static_cast<int>(rng.below(max_bits));
            for (int i = 0; i < kLineSize / word; ++i) {
                const std::uint64_t d =
                    rng.next() & ((std::uint64_t{1} << bits) - 1);
                const std::uint64_t v = rng.below(4) == 0 ? d : base + d;
                storeLe(line + i * word, word, v);
            }
            int fits = 0;
            const ref::BdiCodec ref_bdi;
            for (BdiEncoding other : kBaseDelta) {
                CompressedLine unused;
                fits += ref_bdi.tryEncode(line, other, &unused);
            }
            multi_fit += fits > 1;
            ASSERT_TRUE(sameAsReference(line))
                << "encoding " << static_cast<int>(enc) << " trial " << trial;
            ASSERT_TRUE(sameKernelsAsReference(line));
        }
    }
    EXPECT_GT(multi_fit, 1000);

    // Lines shaped like the one below, fitting B2D1 (75 bytes) and B4D2
    // (73 bytes) but no other encoding: a small upper halfword over
    // lower halfwords that sit near one 2-byte base or just below zero.
    const BdiCodec bdi;
    for (int trial = 0; trial < 500; ++trial) {
        const std::uint32_t upper = static_cast<std::uint32_t>(rng.below(128))
                                    << 16;
        const auto base = static_cast<std::uint32_t>(0x8000 + rng.below(256));
        storeLe(line, 4, upper | base);
        for (int i = 1; i < kLineSize / 4; ++i) {
            const auto low = static_cast<std::uint32_t>(
                i % 4 == 3 ? 0xFF80 + rng.below(128) : base + rng.below(128));
            storeLe(line + i * 4, 4, upper | low);
        }
        CompressedLine b2d1;
        ASSERT_TRUE(bdi.tryEncode(line, BdiEncoding::B2D1, &b2d1));
        EXPECT_EQ(bdi.compress(line).encoding,
                  static_cast<int>(BdiEncoding::B4D2));
        ASSERT_TRUE(sameAsReference(line)) << "trial " << trial;
    }
}

TEST(CodecDifferential, SmallerEncodingWinsOverEarlierTriedOne)
{
    // 4-byte words 0x00038000 x3 then 0x0003FFF0, repeated, fit both
    // B2D1 (75 bytes) and B4D2 (73 bytes). The smaller must win even
    // though B2D1 was tried first in the reference's order.
    std::uint8_t line[kLineSize];
    for (int i = 0; i < kLineSize / 4; ++i)
        storeLe(line + i * 4, 4, i % 4 == 3 ? 0x0003FFF0u : 0x00038000u);
    const ref::BdiCodec ref_bdi;
    CompressedLine b2d1, b4d2;
    ASSERT_TRUE(ref_bdi.tryEncode(line, BdiEncoding::B2D1, &b2d1));
    ASSERT_TRUE(ref_bdi.tryEncode(line, BdiEncoding::B4D2, &b4d2));
    ASSERT_LT(b4d2.size(), b2d1.size());

    const CompressedLine cl = getCodec(Algorithm::Bdi).compress(line);
    EXPECT_EQ(cl.encoding, static_cast<int>(BdiEncoding::B4D2));
    EXPECT_EQ(cl.size(), 73);
    EXPECT_TRUE(sameAsReference(line));
}

TEST(CodecDifferential, BitWriterMatchesReferenceWriter)
{
    Rng rng(0xB175);
    for (int trial = 0; trial < 2000; ++trial) {
        std::uint8_t buf[256 + BitWriter::kSlackBytes];
        BitWriter bw(buf, 256);
        ref::BitWriter want;
        const int fields = static_cast<int>(rng.below(60));
        for (int i = 0; i < fields; ++i) {
            const int bits = static_cast<int>(rng.below(33));
            const auto v = static_cast<std::uint32_t>(rng.next());
            bw.put(v, bits);
            want.put(v, bits);
        }
        ASSERT_EQ(bw.bitCount(), want.bitCount());
        ASSERT_EQ(static_cast<std::size_t>(bw.byteCount()),
                  want.bytes().size());
        if (!want.bytes().empty()) {
            ASSERT_EQ(std::memcmp(bw.data(), want.bytes().data(),
                                  want.bytes().size()),
                      0)
                << "trial " << trial;
        }
    }
}

} // namespace
} // namespace caba

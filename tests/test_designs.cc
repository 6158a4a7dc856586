/**
 * @file
 * Design-point configuration tests: the five Section 6 designs and the
 * Figure 13 cache-compression variants carry exactly the properties the
 * paper assigns them.
 */
#include <gtest/gtest.h>

#include "compress/design.h"

namespace caba {
namespace {

TEST(Design, BaseHasNoCompression)
{
    const DesignConfig d = DesignConfig::base();
    EXPECT_EQ(d.name, "Base");
    EXPECT_FALSE(d.usesCompression());
    EXPECT_FALSE(d.memCompressed());
    EXPECT_FALSE(d.xbarCompressed());
    EXPECT_EQ(d.decompress, DecompressSite::None);
}

TEST(Design, HwMemCompressesDramOnly)
{
    const DesignConfig d = DesignConfig::hwMem();
    EXPECT_EQ(d.name, "HW-BDI-Mem");
    EXPECT_TRUE(d.memCompressed());
    EXPECT_FALSE(d.xbarCompressed());        // data expands at the MC
    EXPECT_EQ(d.decompress, DecompressSite::MemCtrl);
    EXPECT_TRUE(d.mdOverhead());
    EXPECT_FALSE(d.usesCaba());
}

TEST(Design, HwCompressesInterconnectToo)
{
    const DesignConfig d = DesignConfig::hw();
    EXPECT_EQ(d.name, "HW-BDI");
    EXPECT_TRUE(d.memCompressed());
    EXPECT_TRUE(d.xbarCompressed());
    EXPECT_EQ(d.decompress, DecompressSite::L1Hw);
    EXPECT_FALSE(d.usesCaba());
}

TEST(Design, CabaUsesAssistWarpsEverywhere)
{
    const DesignConfig d = DesignConfig::caba();
    EXPECT_EQ(d.name, "CABA-BDI");
    EXPECT_TRUE(d.usesCaba());
    EXPECT_TRUE(d.mdOverhead());
    EXPECT_TRUE(d.memCompressed());
    EXPECT_TRUE(d.xbarCompressed());
}

TEST(Design, IdealHasNoOverheads)
{
    const DesignConfig d = DesignConfig::ideal();
    EXPECT_EQ(d.name, "Ideal-BDI");
    EXPECT_EQ(d.decompress, DecompressSite::Free);
    EXPECT_FALSE(d.mdOverhead());
    EXPECT_FALSE(d.usesCaba());
    EXPECT_TRUE(d.memCompressed());
    EXPECT_TRUE(d.xbarCompressed());
}

TEST(Design, CompressionPropertiesFollowFromTheDecompressSite)
{
    // Where data is decompressed decides where it travels compressed
    // and which overheads apply; nothing else can set them.
    struct Row
    {
        DecompressSite site;
        bool mem, xbar, caba, md;
    };
    const Row rows[] = {
        {DecompressSite::None, false, false, false, false},
        {DecompressSite::MemCtrl, true, false, false, true},
        {DecompressSite::L1Hw, true, true, false, true},
        {DecompressSite::L1Caba, true, true, true, true},
        {DecompressSite::Free, true, true, false, false},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(static_cast<int>(row.site));
        DesignConfig d;
        d.algo = Algorithm::Bdi;
        d.decompress = row.site;
        EXPECT_EQ(d.memCompressed(), row.mem);
        EXPECT_EQ(d.xbarCompressed(), row.xbar);
        EXPECT_EQ(d.usesCaba(), row.caba);
        EXPECT_EQ(d.mdOverhead(), row.md);
    }
}

TEST(Design, AlgorithmSelectsName)
{
    EXPECT_EQ(DesignConfig::caba(Algorithm::Fpc).name, "CABA-FPC");
    EXPECT_EQ(DesignConfig::caba(Algorithm::CPack).name, "CABA-C-Pack");
    EXPECT_EQ(DesignConfig::caba(Algorithm::BestOfAll).name,
              "CABA-BestOfAll");
    EXPECT_EQ(DesignConfig::hw(Algorithm::Fpc).name, "HW-FPC");
}

TEST(Design, CacheCompressionVariants)
{
    const DesignConfig l1x2 = DesignConfig::cabaCompressedCache(2, 1);
    EXPECT_EQ(l1x2.name, "CABA-L1-2x");
    EXPECT_EQ(l1x2.l1_tag_factor, 2);
    EXPECT_EQ(l1x2.l2_tag_factor, 1);
    EXPECT_TRUE(l1x2.usesCaba());

    const DesignConfig l2x4 = DesignConfig::cabaCompressedCache(1, 4);
    EXPECT_EQ(l2x4.name, "CABA-L2-4x");
    EXPECT_EQ(l2x4.l2_tag_factor, 4);
}

} // namespace
} // namespace caba

/**
 * @file
 * The run loop's shared primitives: Channel capacity semantics
 * (canPush gates, push never refuses), its FIFO take(), and the kNoWork
 * wake-time sentinel.
 */
#include <gtest/gtest.h>

#include "common/component.h"

namespace caba {
namespace {

TEST(Channel, CapacityGatesCanPushNotPush)
{
    Channel<int> ch(2);
    EXPECT_TRUE(ch.canPush());
    ch.push(1);
    ch.push(2);
    EXPECT_FALSE(ch.canPush());
    // Producers with reserved slots may exceed the advertised capacity,
    // exactly like the hand-rolled deques the Channel replaced.
    ch.push(3);
    EXPECT_EQ(ch.size(), 3u);
    EXPECT_EQ(ch.front(), 1);
}

TEST(Channel, UnboundedByDefault)
{
    Channel<int> ch;
    for (int i = 0; i < 1000; ++i) {
        EXPECT_TRUE(ch.canPush());
        ch.push(i);
    }
    EXPECT_EQ(ch.size(), 1000u);
}

TEST(Channel, SourceSinkFacesMatchDequeOps)
{
    Channel<int> ch(4);
    ch.push(7);
    ch.push(8);
    EXPECT_EQ(ch.front(), 7);
    EXPECT_EQ(ch.take(), 7);
    EXPECT_EQ(ch.size(), 1u);
    EXPECT_EQ(ch.take(), 8);
    EXPECT_TRUE(ch.empty());
}

TEST(NoWork, SentinelIsMaximal)
{
    EXPECT_EQ(kNoWork, ~Cycle{0});
    EXPECT_GT(kNoWork, Cycle{1} << 62);
}

} // namespace
} // namespace caba

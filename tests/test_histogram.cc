/** @file Unit tests for util/histogram.hh. */

#include <gtest/gtest.h>

#include "util/histogram.hh"

using rlr::util::Histogram;

TEST(Histogram, BasicCounting)
{
    Histogram h(4, 10);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(39);
    h.sample(40); // overflow
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.overflowCount(), 1u);
}

TEST(Histogram, Mean)
{
    Histogram h(16, 1);
    h.sample(2);
    h.sample(4);
    h.sample(6);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(Histogram, WeightedSamples)
{
    Histogram h(8, 1);
    h.sample(3, 5);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(Histogram, Quantile)
{
    Histogram h(100, 1);
    for (uint64_t v = 0; v < 100; ++v)
        h.sample(v);
    EXPECT_NEAR(static_cast<double>(h.quantile(0.5)), 50.0, 2.0);
    EXPECT_NEAR(static_cast<double>(h.quantile(0.9)), 90.0, 2.0);
}

TEST(Histogram, MergeAccumulates)
{
    Histogram a(4, 1), b(4, 1);
    a.sample(1);
    b.sample(1);
    b.sample(2);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.bucketCount(1), 2u);
    EXPECT_EQ(a.bucketCount(2), 1u);
}

TEST(Histogram, MergeShapeMismatchIsFatal)
{
    Histogram a(4, 1);
    Histogram more_buckets(8, 1);
    Histogram wider(4, 2);
    EXPECT_DEATH(a.merge(more_buckets), "shape mismatch");
    EXPECT_DEATH(a.merge(wider), "shape mismatch");
}

TEST(Histogram, ResetClears)
{
    Histogram h(4, 1);
    h.sample(2);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, RenderNonEmpty)
{
    Histogram h(4, 1);
    EXPECT_EQ(h.render(), "(empty)\n");
    h.sample(1, 10);
    const std::string out = h.render(20);
    EXPECT_NE(out.find('#'), std::string::npos);
}

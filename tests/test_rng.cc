/** @file Unit and property tests for util/rng.hh. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/rng.hh"

using namespace rlr::util;

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng rng(7);
    for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(3);
    std::vector<int> v(50);
    for (int i = 0; i < 50; ++i)
        v[i] = i;
    rng.shuffle(v);
    std::vector<int> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(Rng, ForkIndependence)
{
    Rng a(9);
    Rng child = a.fork();
    // The fork and the parent should not produce the same stream.
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == child.next();
    EXPECT_LT(same, 4);
}

/** Zipf rank-0 frequency grows with alpha (skew property). */
class ZipfAlphaTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfAlphaTest, HeadProbabilityMatchesTheory)
{
    const double alpha = GetParam();
    const uint64_t n = 100;
    ZipfSampler zipf(n, alpha);
    Rng rng(77);
    uint64_t head = 0;
    const int samples = 20000;
    for (int i = 0; i < samples; ++i)
        head += zipf.sample(rng) == 0;

    double denom = 0.0;
    for (uint64_t k = 1; k <= n; ++k)
        denom += 1.0 / std::pow(static_cast<double>(k), alpha);
    const double expected = (1.0 / denom);
    EXPECT_NEAR(static_cast<double>(head) / samples, expected,
                0.02);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlphaTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.2));

TEST(Zipf, SamplesWithinRange)
{
    ZipfSampler zipf(10, 1.0);
    Rng rng(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(zipf.sample(rng), 10u);
}


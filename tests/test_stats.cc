/** @file Unit tests for stats/stats.hh. */

#include <gtest/gtest.h>

#include "stats/stats.hh"

using namespace rlr::stats;

TEST(StatSet, CounterRegistrationAndStability)
{
    StatSet s("llc");
    uint64_t &hits = s.counter("hits");
    hits = 5;
    uint64_t &again = s.counter("hits");
    EXPECT_EQ(&hits, &again);
    EXPECT_EQ(s.value("hits"), 5u);
    EXPECT_EQ(s.value("unknown"), 0u);
}

TEST(StatSet, ReferenceStableAcrossInserts)
{
    StatSet s;
    uint64_t &a = s.counter("a");
    a = 1;
    // Inserting many more counters must not invalidate `a`.
    for (int i = 0; i < 100; ++i) {
        std::string name = "x";
        name += std::to_string(i);
        s.counter(name) = 1;
    }
    a = 42;
    EXPECT_EQ(s.value("a"), 42u);
}

TEST(StatSet, ResetAndMerge)
{
    StatSet a("x"), b("x");
    a.counter("n") = 3;
    b.counter("n") = 4;
    b.counter("m") = 1;
    a.merge(b);
    EXPECT_EQ(a.value("n"), 7u);
    EXPECT_EQ(a.value("m"), 1u);
    a.reset();
    EXPECT_EQ(a.value("n"), 0u);
}

TEST(StatSet, DumpFormat)
{
    StatSet s("core");
    s.counter("cycles") = 10;
    EXPECT_EQ(s.dump(), "core.cycles 10\n");
}

TEST(Derived, SafeDiv)
{
    EXPECT_DOUBLE_EQ(safeDiv(4, 2), 2.0);
    EXPECT_DOUBLE_EQ(safeDiv(4, 0), 0.0);
}

TEST(Derived, Mpki)
{
    EXPECT_DOUBLE_EQ(mpki(50, 10000), 5.0);
    EXPECT_DOUBLE_EQ(mpki(50, 0), 0.0);
}

TEST(Derived, HitRate)
{
    EXPECT_DOUBLE_EQ(hitRate(3, 4), 0.75);
    EXPECT_DOUBLE_EQ(hitRate(0, 0), 0.0);
}

TEST(Derived, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-9);
    // Non-positive input collapses to 0 (defined behaviour).
    EXPECT_DOUBLE_EQ(geomean({1.0, 0.0}), 0.0);
}

TEST(Derived, Speedup)
{
    EXPECT_DOUBLE_EQ(speedup(1.2, 1.0), 1.2);
    EXPECT_DOUBLE_EQ(speedup(1.0, 0.0), 0.0);
}

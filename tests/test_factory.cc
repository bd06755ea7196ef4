/** @file Tests for the policy factory. */

#include <gtest/gtest.h>

#include "core/policy_factory.hh"
#include "core/rlr.hh"
#include "tests/policy_test_util.hh"

using namespace rlr;
using namespace rlr::core;

TEST(Factory, AllKnownPoliciesConstruct)
{
    cache::CacheGeometry geom;
    geom.size_bytes = 2 * 1024 * 1024;
    geom.ways = 16;
    for (const auto &name : knownPolicies()) {
        auto p = makePolicy(name, 1);
        ASSERT_NE(p, nullptr) << name;
        p->bind(geom);
        EXPECT_FALSE(p->name().empty()) << name;
        // Overhead model must be queryable for Table I.
        (void)p->overhead().totalKiB(geom);
    }
}

TEST(Factory, PcUsageMatchesPaperTable)
{
    EXPECT_FALSE(makePolicy("LRU")->usesPc());
    EXPECT_FALSE(makePolicy("DRRIP")->usesPc());
    EXPECT_FALSE(makePolicy("KPC-R")->usesPc());
    EXPECT_FALSE(makePolicy("RLR")->usesPc());
    EXPECT_TRUE(makePolicy("SHiP")->usesPc());
    EXPECT_TRUE(makePolicy("SHiP++")->usesPc());
    EXPECT_TRUE(makePolicy("Hawkeye")->usesPc());
}

TEST(Factory, PaperPoliciesSubsetOfKnown)
{
    const auto known = knownPolicies();
    for (const auto &p : paperPolicies()) {
        EXPECT_NE(std::find(known.begin(), known.end(), p),
                  known.end())
            << p;
    }
}

TEST(Factory, RlrSpecParsing)
{
    auto p = makePolicy("RLR:opt=0,age=6,tick=1,hit=2,rdmul=3");
    auto *rlrp = dynamic_cast<RlrPolicy *>(p.get());
    ASSERT_NE(rlrp, nullptr);
    EXPECT_FALSE(rlrp->config().optimized);
    EXPECT_EQ(rlrp->config().age_bits, 6u);
    EXPECT_EQ(rlrp->config().rd_multiplier, 3u);
}

TEST(Factory, RlrSpecFlags)
{
    auto p = makePolicy("RLR:usehit=0,usetype=0,bypass=1,mc=1,"
                        "cores=2");
    auto *rlrp = dynamic_cast<RlrPolicy *>(p.get());
    ASSERT_NE(rlrp, nullptr);
    EXPECT_FALSE(rlrp->config().use_hit_priority);
    EXPECT_FALSE(rlrp->config().use_type_priority);
    EXPECT_TRUE(rlrp->config().allow_bypass);
    EXPECT_TRUE(rlrp->config().multicore);
    EXPECT_EQ(rlrp->config().num_cores, 2u);
}

TEST(FactoryDeathTest, UnknownPolicyIsFatal)
{
    EXPECT_EXIT(makePolicy("NoSuchPolicy"),
                ::testing::ExitedWithCode(1), "unknown");
}

TEST(FactoryDeathTest, BadRlrSpecIsFatal)
{
    EXPECT_EXIT(makePolicy("RLR:banana=1"),
                ::testing::ExitedWithCode(1), "unknown RLR");
}

TEST(FactoryDeathTest, BadRlrSpecValueIsFatal)
{
    EXPECT_EXIT(makePolicy("RLR:opt=yes"), ::testing::ExitedWithCode(1),
                "RLR spec item 'opt=yes'");
    EXPECT_EXIT(makePolicy("RLR:rdmul=4x"), ::testing::ExitedWithCode(1),
                "RLR spec item 'rdmul=4x'");
    EXPECT_EXIT(makePolicy("RLR:age=4294967297"),
                ::testing::ExitedWithCode(1),
                "RLR spec item 'age=4294967297'");
    EXPECT_EXIT(makePolicy("RLR:hit=-1"), ::testing::ExitedWithCode(1),
                "RLR spec item 'hit=-1'");
}

/** @file Unit tests for util/args.hh and util/table.hh. */

#include <gtest/gtest.h>

#include "util/args.hh"
#include "util/table.hh"

using namespace rlr::util;

namespace
{

bool
parse(ArgParser &p, const std::vector<const char *> &args)
{
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return p.parse(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(Args, Defaults)
{
    ArgParser p("test");
    p.addOption("count", "5", "a count");
    ASSERT_TRUE(parse(p, {}));
    EXPECT_EQ(p.getInt("count"), 5);
}

TEST(Args, SpaceSeparatedValue)
{
    ArgParser p("test");
    p.addOption("count", "5", "a count");
    ASSERT_TRUE(parse(p, {"--count", "9"}));
    EXPECT_EQ(p.getInt("count"), 9);
}

TEST(Args, EqualsValue)
{
    ArgParser p("test");
    p.addOption("name", "x", "a name");
    ASSERT_TRUE(parse(p, {"--name=zeus"}));
    EXPECT_EQ(p.get("name"), "zeus");
}

TEST(Args, Flags)
{
    ArgParser p("test");
    p.addFlag("fast", "go fast");
    ASSERT_TRUE(parse(p, {"--fast"}));
    EXPECT_TRUE(p.getFlag("fast"));

    ArgParser q("test");
    q.addFlag("fast", "go fast");
    ASSERT_TRUE(parse(q, {}));
    EXPECT_FALSE(q.getFlag("fast"));
}

TEST(Args, NumericParsing)
{
    ArgParser p("test");
    p.addOption("u", "0", "");
    p.addOption("d", "0", "");
    p.addOption("hex", "0", "");
    p.addOption("i", "0", "");
    ASSERT_TRUE(parse(p, {"--u", "12345678901", "--d", "2.5",
                          "--hex=0x10", "--i=-7"}));
    EXPECT_EQ(p.getUint("u"), 12345678901ULL);
    EXPECT_DOUBLE_EQ(p.getDouble("d"), 2.5);
    EXPECT_EQ(p.getUint("hex"), 16u);
    EXPECT_EQ(p.getInt("i"), -7);
}

TEST(ArgsDeathTest, NumericOptionMustParseWhole)
{
    ArgParser p("test");
    p.addOption("instructions", "0", "");
    p.addOption("threads", "0", "");
    p.addOption("lease-ttl", "0", "");
    p.addOption("seed", "0", "");
    ASSERT_TRUE(parse(p, {"--instructions=1e6", "--threads=abc",
                          "--lease-ttl=2s", "--seed="}));
    EXPECT_EXIT(p.getUint("instructions"), ::testing::ExitedWithCode(1),
                "option '--instructions'.*'1e6'");
    EXPECT_EXIT(p.getInt("threads"), ::testing::ExitedWithCode(1),
                "option '--threads'.*'abc'");
    EXPECT_EXIT(p.getDouble("lease-ttl"), ::testing::ExitedWithCode(1),
                "option '--lease-ttl'.*'2s'");
    EXPECT_EXIT(p.getUint("seed"), ::testing::ExitedWithCode(1),
                "option '--seed'");
}

TEST(ArgsDeathTest, UnsignedOptionRejectsSignAndOverflow)
{
    ArgParser p("test");
    p.addOption("workers", "0", "");
    p.addOption("warmup", "0", "");
    p.addOption("offset", "0", "");
    p.addOption("ratio", "0", "");
    ASSERT_TRUE(parse(p, {"--workers=-1", "--warmup=18446744073709551616",
                          "--offset=9223372036854775808",
                          "--ratio=1e400"}));
    EXPECT_EXIT(p.getUint("workers"), ::testing::ExitedWithCode(1),
                "option '--workers'.*'-1'");
    EXPECT_EXIT(p.getUint("warmup"), ::testing::ExitedWithCode(1),
                "option '--warmup'");
    EXPECT_EXIT(p.getInt("offset"), ::testing::ExitedWithCode(1),
                "option '--offset'");
    EXPECT_EXIT(p.getDouble("ratio"), ::testing::ExitedWithCode(1),
                "option '--ratio'");
}

TEST(Args, ListSplitting)
{
    ArgParser p("test");
    p.addOption("items", "", "");
    ASSERT_TRUE(parse(p, {"--items", "a,b,c"}));
    const auto items = p.getList("items");
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0], "a");
    EXPECT_EQ(items[2], "c");
}

TEST(Args, EmptyListIsEmpty)
{
    ArgParser p("test");
    p.addOption("items", "", "");
    ASSERT_TRUE(parse(p, {}));
    EXPECT_TRUE(p.getList("items").empty());
}

TEST(Args, HelpReturnsFalse)
{
    ArgParser p("test");
    ::testing::internal::CaptureStdout();
    const bool cont = parse(p, {"--help"});
    ::testing::internal::GetCapturedStdout();
    EXPECT_FALSE(cont);
}

TEST(Args, UsageMentionsOptions)
{
    ArgParser p("my tool");
    p.addOption("alpha", "1", "the alpha knob");
    const std::string usage = p.usage();
    EXPECT_NE(usage.find("alpha"), std::string::npos);
    EXPECT_NE(usage.find("the alpha knob"), std::string::npos);
    EXPECT_NE(usage.find("my tool"), std::string::npos);
}

TEST(Table, RenderAligned)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Separator row present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, Csv)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(0.5, 1), "50.0%");
}

TEST(Table, RowCount)
{
    Table t({"x"});
    EXPECT_EQ(t.numRows(), 0u);
    t.addRow({"1"});
    EXPECT_EQ(t.numRows(), 1u);
}

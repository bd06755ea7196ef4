#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/experiment.hh"
#include "stats/export.hh"
#include "stats/registry.hh"
#include "stats/stats.hh"

using namespace rlr;
using stats::Registry;
using stats::Snapshot;

TEST(Registry, OwnedCounterRoundTrip)
{
    Registry reg;
    uint64_t &hits = reg.counter("llc.hits", "demand hits");
    hits += 3;
    EXPECT_TRUE(reg.has("llc.hits"));
    EXPECT_EQ(reg.counterValue("llc.hits"), 3u);
    EXPECT_EQ(reg.description("llc.hits"), "demand hits");
    EXPECT_EQ(reg.counterValue("llc.misses"), 0u);
    EXPECT_FALSE(reg.has("llc.misses"));
}

TEST(Registry, DuplicatePathThrows)
{
    Registry reg;
    reg.counter("llc.hits");
    EXPECT_THROW(reg.counter("llc.hits"), std::invalid_argument);
    EXPECT_THROW(reg.bindCounter("llc.hits", [] { return 0ULL; }),
                 std::invalid_argument);
    EXPECT_THROW(reg.formula("llc.hits",
                             [](const Registry &) { return 0.0; }),
                 std::invalid_argument);
    EXPECT_THROW(reg.counter(""), std::invalid_argument);
}

TEST(Registry, BoundCounterPullsLiveValue)
{
    Registry reg;
    uint64_t external = 0;
    reg.bindCounter("dram.reads", [&] { return external; });
    external = 41;
    EXPECT_EQ(reg.counterValue("dram.reads"), 41u);
    external = 42;
    EXPECT_EQ(reg.snapshot().counter("dram.reads"), 42u);
}

TEST(Registry, StatSetMountIsLazy)
{
    stats::StatSet set("LLC");
    Registry reg;
    reg.bindStatSet("llc", &set);
    set.counter("LD_hit") = 7;
    // Counter created *after* the mount still resolves.
    EXPECT_EQ(reg.counterValue("llc.LD_hit"), 7u);
    EXPECT_TRUE(reg.has("llc.LD_hit"));
    set.counter("LD_miss") = 2;
    const Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("llc.LD_hit"), 7u);
    EXPECT_EQ(snap.counter("llc.LD_miss"), 2u);
    // Dotted counter names inside the set survive the mount.
    set.counter("deep.nested") = 1;
    EXPECT_EQ(reg.counterValue("llc.deep.nested"), 1u);
}

TEST(Registry, FormulaReadsCountersAndFormulas)
{
    Registry reg;
    uint64_t &hits = reg.counter("hits");
    uint64_t &accesses = reg.counter("accesses");
    hits = 30;
    accesses = 40;
    reg.formula("hit_rate", [](const Registry &r) {
        return stats::safeDiv(
            static_cast<double>(r.counterValue("hits")),
            static_cast<double>(r.counterValue("accesses")));
    });
    // Formulas may reference other formulas (demand-driven), even
    // ones registered later in the order.
    reg.formula("miss_rate", [](const Registry &r) {
        return 1.0 - r.value("hit_rate");
    });
    EXPECT_DOUBLE_EQ(reg.value("hit_rate"), 0.75);
    EXPECT_DOUBLE_EQ(reg.value("miss_rate"), 0.25);

    const Snapshot snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.formula("hit_rate"), 0.75);
    EXPECT_DOUBLE_EQ(snap.formula("miss_rate"), 0.25);
    // Registration order is preserved in the snapshot.
    ASSERT_EQ(snap.formulas.size(), 2u);
    EXPECT_EQ(snap.formulas[0].first, "hit_rate");
    EXPECT_EQ(snap.formulas[1].first, "miss_rate");
}

TEST(Registry, Distributions)
{
    Registry reg;
    util::Histogram &owned =
        reg.distribution("lat", 4, 10, "latency");
    owned.sample(5);
    owned.sample(35);
    owned.sample(1000); // overflow

    util::Histogram external(2, 1);
    external.sample(0);
    reg.bindDistribution("ext", &external);

    const Snapshot snap = reg.snapshot();
    const auto *lat = snap.histogram("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->bucket_width, 10u);
    EXPECT_EQ(lat->buckets.size(), 4u);
    EXPECT_EQ(lat->buckets[0], 1u);
    EXPECT_EQ(lat->buckets[3], 1u);
    EXPECT_EQ(lat->overflow, 1u);
    EXPECT_EQ(lat->total(), 3u);
    const auto *ext = snap.histogram("ext");
    ASSERT_NE(ext, nullptr);
    EXPECT_EQ(ext->total(), 1u);
    EXPECT_EQ(snap.histogram("nope"), nullptr);
}

TEST(Registry, SnapshotJsonRoundTrip)
{
    Registry reg;
    reg.counter("llc.hits") = 123456789;
    reg.counter("llc.misses") = 0;
    util::Histogram &h = reg.distribution("dram.lat", 3, 16);
    h.sample(0, 5);
    h.sample(40);
    h.sample(100); // overflow
    reg.formula("ipc",
                [](const Registry &) { return 0.7853981634; });

    const Snapshot snap = reg.snapshot();
    const std::string text = stats::toJson(snap);
    const Snapshot back = stats::fromJson(text);

    // Counters and histograms round-trip exactly.
    EXPECT_EQ(back.counters, snap.counters);
    EXPECT_EQ(back.histograms, snap.histograms);
    ASSERT_EQ(back.formulas.size(), 1u);
    EXPECT_EQ(back.formulas[0].first, "ipc");
    EXPECT_NEAR(back.formulas[0].second, 0.7853981634, 1e-9);
}

TEST(Registry, JsonParserRejectsMalformed)
{
    EXPECT_THROW(stats::json::parse(""), std::runtime_error);
    EXPECT_THROW(stats::json::parse("{"), std::runtime_error);
    EXPECT_THROW(stats::json::parse("[1, ]"), std::runtime_error);
    EXPECT_THROW(stats::json::parse("{\"a\": 1} trailing"),
                 std::runtime_error);
    EXPECT_THROW(stats::fromJson("[1, 2]"), std::runtime_error);
}

TEST(Registry, JsonParserBoundsNestingDepth)
{
    const auto nested = [](int depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    // A hostile 200,000-deep document used to overflow the stack of
    // the recursive-descent parser (SIGSEGV); now it is a parse error.
    EXPECT_THROW(stats::json::parse(nested(200'000)),
                 std::runtime_error);
    EXPECT_THROW(stats::json::parse(std::string(200'000, '{')),
                 std::runtime_error);
    EXPECT_THROW(stats::json::parse(nested(stats::json::kMaxDepth + 1)),
                 std::runtime_error);

    // Nesting up to the limit, and ordinary mixed documents, parse.
    const auto deepest =
        stats::json::parse(nested(stats::json::kMaxDepth));
    EXPECT_TRUE(deepest.isArray());
    const auto doc = stats::json::parse(
        R"({"a": [{"b": [1, {"c": [[]]}]}], "d": {"e": null}})");
    ASSERT_TRUE(doc.isObject());
    const auto *a = doc.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->array.size(), 1u);
    EXPECT_NE(a->array[0].find("b"), nullptr);
    // Depth is tracked per path, not per document: many siblings at
    // a shallow level are fine.
    std::string wide = "[";
    for (int i = 0; i < 10'000; ++i)
        wide += (i ? ",[[]]" : "[[]]");
    wide += "]";
    EXPECT_EQ(stats::json::parse(wide).array.size(), 10'000u);
}

TEST(Registry, SystemSnapshotViaRunResult)
{
    sim::SimParams params;
    params.warmup_instructions = 5'000;
    params.sim_instructions = 20'000;
    const sim::RunResult r =
        sim::runSingleCore("429.mcf", params);

    // The canonical dotted naming scheme is populated.
    EXPECT_GT(r.stats.counter("core0.instructions_retired"), 0u);
    EXPECT_GT(r.stats.counter("dram.reads"), 0u);
    EXPECT_GT(r.stats.formula("core0.ipc"), 0.0);
    EXPECT_GT(r.stats.formula("llc.policy.overhead_kib"), 0.0);
    const auto *lat = r.stats.histogram("dram.read_latency");
    ASSERT_NE(lat, nullptr);
    EXPECT_GT(lat->total(), 0u);
    // Snapshot metrics agree with the legacy RunResult fields.
    EXPECT_NEAR(r.stats.formula("llc.demand_hit_rate"),
                r.llcDemandHitRate(), 1e-12);
    EXPECT_NEAR(r.stats.formula("llc.demand_mpki"),
                r.llcDemandMpki(), 1e-12);
    EXPECT_NEAR(r.stats.formula("core0.ipc"), r.ipc(), 1e-12);
}

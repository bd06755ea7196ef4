#include "layers.hh"

#include <algorithm>

#include "cache/cache.hh"
#include "core/policy_factory.hh"
#include "cpu/core.hh"
#include "mem/dram.hh"
#include "policies/lru.hh"
#include "prefetch/ip_stride.hh"
#include "prefetch/kpc_p.hh"
#include "prefetch/next_line.hh"
#include "sim/system.hh"
#include "stats/registry.hh"
#include "trace/workloads.hh"

namespace hostbench
{

using namespace rlr;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
measureTicksPerNs()
{
    const uint64_t ns0 = clockNs(), ticks0 = spanTicks();
    while (clockNs() - ns0 < 20'000'000) {
    }
    return static_cast<double>(spanTicks() - ticks0) /
           static_cast<double>(clockNs() - ns0);
}

namespace
{

/** A memory level that does nothing, to time a decorator alone. */
class NullLevel : public cache::MemoryLevel
{
  public:
    uint64_t
    access(const cache::MemRequest &, uint64_t now) override
    {
        return now;
    }

    const std::string &name() const override { return name_; }

  private:
    std::string name_ = "null";
};

} // namespace

TimerCost
calibrateTimer(double ticks_per_ns)
{
    // Calls through a TimedLevel over a level that does nothing,
    // inside one enclosing span, made as the hierarchy makes them
    // (a virtual call per level). Their own durations give the
    // inner cost, the enclosing span's self time the outer cost.
    constexpr int kBatches = 5;
    constexpr uint64_t kSpans = 20000;
    std::vector<TimerCost> batches;
    NullLevel null;
    const cache::MemRequest req;
    for (int b = 0; b < kBatches; ++b) {
        Tracer t;
        TimedLevel timed(t, Layer::Trace, &null);
        // Read through volatile, so the call is not devirtualized.
        cache::MemoryLevel *volatile port = &timed;
        {
            Span enclosing(t, Layer::Core);
            for (uint64_t i = 0; i < kSpans; ++i)
                port->access(req, i);
        }
        batches.push_back(TimerCost{
            static_cast<double>(t.totals(Layer::Trace).self_ticks) /
                kSpans,
            static_cast<double>(t.totals(Layer::Core).self_ticks) /
                kSpans,
            ticks_per_ns});
    }
    return medianCost(batches);
}

TimerCost
medianCost(const std::vector<TimerCost> &costs)
{
    std::vector<double> inner, outer, rate;
    for (const TimerCost &c : costs) {
        inner.push_back(c.inner);
        outer.push_back(c.outer);
        rate.push_back(c.ticks_per_ns);
    }
    return TimerCost{median(inner), median(outer), median(rate)};
}

double
calibratedSelfNs(const Tracer &tracer, Layer layer,
                 const TimerCost &cost)
{
    const Tracer::Totals &t = tracer.totals(layer);
    return cost.ns(static_cast<double>(t.self_ticks) -
                   static_cast<double>(t.calls) * cost.inner -
                   static_cast<double>(t.child_calls) * cost.outer);
}

CellOutcome
runTracedCell(const std::string &workload,
              const sim::SimParams &params, Tracer &tracer)
{
    // Mirrors sim::System's single-core wiring (paper Table III)
    // with a TimedLevel between every two levels.
    const sim::SystemConfig cfg;

    mem::Dram dram(cfg.dram);
    TimedLevel dram_port(tracer, Layer::Dram, &dram);

    cache::CacheGeometry llc_geom;
    llc_geom.name = "LLC";
    llc_geom.size_bytes = cfg.llc_size_per_core;
    llc_geom.ways = cfg.llc_ways;
    llc_geom.latency = cfg.llc_latency;
    llc_geom.mshrs = 64;
    cache::Cache llc(llc_geom,
                     core::makePolicy(params.llc_policy, params.seed),
                     &dram_port);
    TimedLevel llc_port(tracer, Layer::Llc, &llc);

    cache::CacheGeometry l2_geom;
    l2_geom.name = "cpu0.L2";
    l2_geom.size_bytes = cfg.l2_size;
    l2_geom.ways = cfg.l2_ways;
    l2_geom.latency = cfg.l2_latency;
    l2_geom.mshrs = 32;
    cache::Cache l2(l2_geom, std::make_unique<policies::LruPolicy>(),
                    &llc_port);
    switch (params.l2_prefetcher) {
      case sim::L2Prefetcher::IpStride:
        l2.setPrefetcher(std::make_unique<TimedPrefetcher>(
            tracer, std::make_unique<prefetch::IpStridePrefetcher>()));
        break;
      case sim::L2Prefetcher::KpcP:
        l2.setPrefetcher(std::make_unique<TimedPrefetcher>(
            tracer, std::make_unique<prefetch::KpcPPrefetcher>()));
        l2.setPrefetchFillThreshold(0.25f);
        break;
      case sim::L2Prefetcher::None:
        break;
    }
    TimedLevel l2_port(tracer, Layer::L2, &l2);

    cache::CacheGeometry l1i_geom;
    l1i_geom.name = "cpu0.L1I";
    l1i_geom.size_bytes = cfg.l1i_size;
    l1i_geom.ways = cfg.l1i_ways;
    l1i_geom.latency = cfg.l1i_latency;
    l1i_geom.mshrs = 8;
    cache::Cache l1i(l1i_geom, std::make_unique<policies::LruPolicy>(),
                     &l2_port);
    TimedLevel l1i_port(tracer, Layer::L1, &l1i);

    cache::CacheGeometry l1d_geom;
    l1d_geom.name = "cpu0.L1D";
    l1d_geom.size_bytes = cfg.l1d_size;
    l1d_geom.ways = cfg.l1d_ways;
    l1d_geom.latency = cfg.l1d_latency;
    l1d_geom.mshrs = 16;
    cache::Cache l1d(l1d_geom, std::make_unique<policies::LruPolicy>(),
                     &l2_port);
    l1d.setWritesOnRfo(true);
    if (cfg.l1d_prefetcher) {
        l1d.setPrefetcher(std::make_unique<TimedPrefetcher>(
            tracer, std::make_unique<prefetch::NextLinePrefetcher>()));
    }
    TimedLevel l1d_port(tracer, Layer::L1, &l1d);

    cpu::O3Core core(cfg.core, 0, &l1i_port, &l1d_port);
    TimedSource source(tracer, trace::makeGenerator(
                                   workload, params.seed + 0x9e37));

    if (params.warmup_instructions > 0) {
        Span span(tracer, Layer::Core);
        core.run(source, params.warmup_instructions);
    }
    dram.resetStats();
    llc.resetStats();
    l2.resetStats();
    l1i.resetStats();
    l1d.resetStats();
    core.beginMeasurement();
    if (params.sim_instructions > 0) {
        Span span(tracer, Layer::Core);
        core.run(source, params.sim_instructions);
    }

    // runWorkloads ends every cell with a registry snapshot; do
    // the same so the traced cell covers the same work.
    stats::Registry registry;
    dram.describeStats(registry, "dram");
    llc.describeStats(registry, "llc");
    core.describeStats(registry, "core0");
    l1i.describeStats(registry, "core0.l1i");
    l1d.describeStats(registry, "core0.l1d");
    l2.describeStats(registry, "core0.l2");
    const stats::Snapshot snapshot = registry.snapshot();
    (void)snapshot;

    CellOutcome out;
    out.ipc = core.ipc();
    out.llc_demand_accesses = llc.demandAccesses();
    out.llc_demand_hits = llc.demandHits();
    out.llc_demand_misses = llc.demandMisses();
    out.llc_accesses = allAccesses(llc.statSet());
    out.llc_evictions = llc.statSet().value("evictions");
    out.measured_instructions = core.measuredInstructions();
    out.executed_instructions = core.instructions();
    return out;
}

uint64_t
allAccesses(const stats::StatSet &stats)
{
    uint64_t n = 0;
    for (size_t i = 0; i < trace::kNumAccessTypes; ++i) {
        const auto t = static_cast<trace::AccessType>(i);
        n += stats.value(std::string(trace::accessTypeName(t)) +
                         "_access");
    }
    return n;
}

CellOutcome
outcomeOf(const sim::RunResult &result)
{
    CellOutcome out;
    out.ipc = result.ipc();
    out.llc_demand_accesses = result.llc_demand_accesses;
    out.llc_demand_hits = result.llc_demand_hits;
    out.llc_demand_misses = result.llc_demand_misses;
    for (size_t i = 0; i < trace::kNumAccessTypes; ++i) {
        const auto t = static_cast<trace::AccessType>(i);
        out.llc_accesses += result.stats.counter(
            "llc." + std::string(trace::accessTypeName(t)) + "_access");
    }
    out.llc_evictions = result.stats.counter("llc.evictions");
    out.measured_instructions = result.total_instructions;
    return out;
}

bool
sameOutcome(const CellOutcome &a, const CellOutcome &b)
{
    return a.ipc == b.ipc &&
           a.llc_demand_accesses == b.llc_demand_accesses &&
           a.llc_demand_hits == b.llc_demand_hits &&
           a.llc_demand_misses == b.llc_demand_misses &&
           a.llc_accesses == b.llc_accesses &&
           a.llc_evictions == b.llc_evictions &&
           a.measured_instructions == b.measured_instructions;
}

} // namespace hostbench

/**
 * @file
 * `hostbench selftest`: checks of the benchmark's own machinery —
 * metric-name mapping, span self-time arithmetic, and the traced
 * hierarchy reproducing sim::runSingleCore exactly on short cells.
 */

#include <cstdio>
#include <regex>
#include <string>

#include "layers.hh"
#include "sim/experiment.hh"
#include "sim/sweep_runner.hh"
#include "workloads.hh"

namespace hostbench
{

namespace
{

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

void
testMetricNames()
{
    expect(metricSafe("SHiP++") == "SHiPpp", "SHiP++ maps to SHiPpp");
    expect(metricSafe("RLR-unopt") == "RLR-unopt",
           "'-' is kept in metric names");
    expect(metricSafe("a b/c") == "a_b_c",
           "other characters map to '_'");
    const std::regex valid("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    for (const auto &p : replayPolicies()) {
        const std::string name = "cache.llc_replay_ns." + metricSafe(p);
        expect(std::regex_match(name, valid), "valid metric " + name);
    }
}

void
testSpanArithmetic()
{
    Tracer t;
    {
        Span core(t, Layer::Core);
        {
            Span l1(t, Layer::L1);
            Span dram(t, Layer::Dram);
        }
        Span l1(t, Layer::L1);
    }
    expect(t.totals(Layer::Core).calls == 1 &&
               t.totals(Layer::L1).calls == 2 &&
               t.totals(Layer::Dram).calls == 1,
           "span call counts");
    expect(t.totals(Layer::Core).child_calls == 2 &&
               t.totals(Layer::L1).child_calls == 1 &&
               t.totals(Layer::Dram).child_calls == 0,
           "span child counts");
    uint64_t self = 0;
    for (size_t l = 0; l < kNumLayers; ++l)
        self += t.totals(static_cast<Layer>(l)).self_ticks;
    expect(self == t.topLevelTicks() && t.topLevelCalls() == 1,
           "self times partition the top-level span");

    const TimerCost cost = calibrateTimer(measureTicksPerNs());
    expect(cost.inner > 0.0 && cost.outer >= 0.0 &&
               cost.ticks_per_ns > 0.0 && cost.totalNs() < 10'000.0,
           "timer calibration is positive and plausible");
}

void
testTracedCells()
{
    struct Cell
    {
        const char *workload;
        const char *policy;
        rlr::sim::L2Prefetcher prefetcher;
    };
    const Cell cells[] = {
        {"471.omnetpp", "RLR", rlr::sim::L2Prefetcher::IpStride},
        {"470.lbm", "LRU", rlr::sim::L2Prefetcher::IpStride},
        {"429.mcf", "SHiP++", rlr::sim::L2Prefetcher::KpcP},
        {"403.gcc", "Hawkeye", rlr::sim::L2Prefetcher::None},
    };
    for (const Cell &c : cells) {
        rlr::sim::SimParams p;
        p.warmup_instructions = 20'000;
        p.sim_instructions = 60'000;
        p.llc_policy = c.policy;
        p.l2_prefetcher = c.prefetcher;
        p.seed = rlr::sim::SweepRunner::cellSeed(7, c.workload);
        Tracer tracer;
        const CellOutcome traced = runTracedCell(c.workload, p, tracer);
        const CellOutcome prod =
            outcomeOf(rlr::sim::runSingleCore(c.workload, p));
        expect(sameOutcome(traced, prod) && prod.llc_demand_accesses > 0,
               std::string("traced ") + c.workload + "/" + c.policy +
                   " matches runSingleCore");
        expect(traced.executed_instructions == 80'000 &&
                   tracer.totals(Layer::Trace).calls == 80'000,
               std::string("one timed next() per instruction (") +
                   c.workload + ")");
    }
}

} // namespace

int
runSelfTest()
{
    testMetricNames();
    testSpanArithmetic();
    testTracedCells();
    std::printf("%d failure(s)\n", g_failures);
    return g_failures == 0 ? 0 : 1;
}

} // namespace hostbench

/**
 * @file
 * The benchmark's workloads and the report they fill.
 *
 * Each workload is a fixed unit of work (a "round") built from the
 * simulator's production entry points. Every round starts with the
 * workload's set-up, timed on its own:
 *
 *  - spec_sweep: a fig10-style single-core sweep through
 *    sim::SweepRunner with one thread (front end, core, L1/L2);
 *  - llc_replay: captured LLC streams of the paper's eight
 *    training workloads replayed through a standalone cache::Cache
 *    over mem::Dram, timed once the LLC is full (LLC and
 *    replacement policies);
 *  - offline_rl: the offline flow of fig1_hitrate and
 *    rl_learning_curve — OfflineSimulator::runPolicy with LRU,
 *    Belady and RLR, then ml::trainAgent (MLP training).
 *
 * runEndToEnd() repeats the round until the time budget is spent,
 * at least 11 times, and reports the fastest round and the median
 * set-up; runTraced() splits host time across the simulator's
 * layers (see NOTES.md).
 */

#ifndef HOSTBENCH_WORKLOADS_HH
#define HOSTBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace hostbench
{

/** What one benchmark run measured and checked. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value = 0.0;
        /** "host" (what the simulator costs) or "simulated"
         *  (what the modelled machine does). */
        std::string kind;
    };

    std::vector<Metric> metrics;
    /** Operations attempted / failed (a failed check fails its
     *  operation). */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Why operations failed (first few). */
    std::vector<std::string> errors;
    /** Human-readable context lines (sample counts, ...). */
    std::vector<std::string> notes;

    void add(const std::string &name, double value,
             const std::string &kind);
    /** Count one operation; @return @p ok. */
    bool op(bool ok, const std::string &what);
};

/** One invocation of the benchmark. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
};

/** @return the workload names, in documentation order. */
std::vector<std::string> workloadNames();

/** Untraced run: the end-to-end metrics of @p cfg.workload. */
Report runEndToEnd(const RunConfig &cfg);

/**
 * Traced run: every per-layer metric. All three parts (front end,
 * LLC replay, offline ML) run once; the part that belongs to
 * @p cfg.workload is then repeated until cfg.seconds have passed,
 * and each metric is the median over its repetitions.
 */
Report runTraced(const RunConfig &cfg);

/**
 * Map a policy or metric name to the metric alphabet
 * [A-Za-z0-9_.-]: '+' becomes 'p' (SHiP++ -> SHiPpp), anything
 * else outside the alphabet becomes '_'.
 */
std::string metricSafe(const std::string &name);

/** Policies replayed by llc_replay (and the traced run). */
const std::vector<std::string> &replayPolicies();

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH

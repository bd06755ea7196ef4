/**
 * @file
 * Hierarchical statistics registry — the simulator's unified
 * observability layer.
 *
 * Components register named statistics under dotted paths
 * ("llc.LD_hit", "core0.ipc", "dram.row_hits"):
 *
 *  - **counters** — owned uint64_t cells, bound callbacks pulling
 *    a live value, or a whole StatSet mounted under a prefix;
 *  - **distributions** — util::Histogram, owned or borrowed;
 *  - **formulas** — derived doubles (hit rate, MPKI, IPC, ...)
 *    evaluated lazily against the registry, so every consumer
 *    shares one definition of each metric.
 *
 * A component exposes a `describeStats(Registry&, prefix)` method
 * (see cache::Cache, cpu::O3Core, mem::Dram, sim::System and the
 * ReplacementPolicy / Prefetcher hooks) that mounts its live
 * counters; `snapshot()` then freezes every value into a plain
 * Snapshot for export (stats/export.hh: JSON and text).
 *
 * Registration is strict: re-registering an existing path throws
 * std::invalid_argument, so two components can never silently
 * shadow each other's statistics.
 */

#ifndef RLR_STATS_REGISTRY_HH
#define RLR_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats/stats.hh"
#include "util/histogram.hh"

namespace rlr::stats
{

/** Plain-data form of one histogram (export / round-trip). */
struct HistogramData
{
    uint64_t bucket_width = 1;
    std::vector<uint64_t> buckets;
    uint64_t overflow = 0;

    uint64_t total() const;

    /** Copy the live histogram's buckets. */
    static HistogramData from(const util::Histogram &h);

    bool operator==(const HistogramData &) const = default;
};

/**
 * A frozen, ordered view of every registered statistic. Plain
 * data: safe to copy across threads, embed in results, and round-
 * trip through JSON (stats/export.hh).
 */
struct Snapshot
{
    /** (path, value) in registration order. */
    std::vector<std::pair<std::string, uint64_t>> counters;
    /** (path, evaluated value) in registration order. */
    std::vector<std::pair<std::string, double>> formulas;
    /** (path, data) in registration order. */
    std::vector<std::pair<std::string, HistogramData>> histograms;

    /** Counter value by path; 0 when absent. */
    uint64_t counter(const std::string &path) const;
    /** Formula value by path; 0.0 when absent. */
    double formula(const std::string &path) const;
    /** Histogram by path; nullptr when absent. */
    const HistogramData *histogram(const std::string &path) const;

    bool empty() const
    {
        return counters.empty() && formulas.empty() &&
               histograms.empty();
    }
};

/** Hierarchical name registry of counters/distributions/formulas. */
class Registry
{
  public:
    /** Pull-style counter source. */
    using CounterFn = std::function<uint64_t()>;
    /** Derived statistic; may read other entries via the registry. */
    using FormulaFn = std::function<double(const Registry &)>;

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /**
     * Register an owned counter cell.
     * @return stable reference, valid for the registry's lifetime.
     * @throws std::invalid_argument on duplicate path
     */
    uint64_t &counter(const std::string &path,
                      std::string description = "");

    /** Register a counter whose value is pulled from @p fn. */
    void bindCounter(const std::string &path, CounterFn fn,
                     std::string description = "");

    /**
     * Mount every counter of a live StatSet under @p prefix: the
     * set's counter "LD_hit" appears as "<prefix>.LD_hit". The set
     * is borrowed and enumerated lazily at snapshot/lookup time,
     * so counters the component creates later are still exported.
     */
    void bindStatSet(const std::string &prefix, const StatSet *set,
                     std::string description = "");

    /** Register an owned distribution. */
    util::Histogram &distribution(const std::string &path,
                                  size_t nbuckets,
                                  uint64_t bucket_width,
                                  std::string description = "");

    /** Register a borrowed distribution (component-owned). */
    void bindDistribution(const std::string &path,
                          const util::Histogram *hist,
                          std::string description = "");

    /**
     * Register a derived statistic. Formulas are evaluated in
     * registration order at snapshot() time; a formula may read
     * any counter or any formula via value(), including formulas
     * registered after it (evaluation is demand-driven).
     */
    void formula(const std::string &path, FormulaFn fn,
                 std::string description = "");

    /** @return true when @p path names any registered entry. */
    bool has(const std::string &path) const;

    /**
     * Current value of a counter (owned, bound, or inside a
     * mounted StatSet). 0 when absent.
     */
    uint64_t counterValue(const std::string &path) const;

    /**
     * Current value of any scalar entry: formulas evaluate their
     * function, counters convert to double. 0.0 when absent.
     */
    double value(const std::string &path) const;

    /** Description registered for @p path ("" when absent). */
    std::string description(const std::string &path) const;

    /** Freeze every value (formulas evaluated now). */
    Snapshot snapshot() const;

  private:
    enum class Kind
    {
        OwnedCounter,
        BoundCounter,
        StatSetMount,
        OwnedDistribution,
        BoundDistribution,
        Formula,
    };

    struct Entry
    {
        std::string path;
        std::string description;
        Kind kind;
        std::unique_ptr<uint64_t> owned_counter;
        CounterFn counter_fn;
        const StatSet *stat_set = nullptr;
        std::unique_ptr<util::Histogram> owned_hist;
        const util::Histogram *bound_hist = nullptr;
        FormulaFn formula_fn;
    };

    Entry &addEntry(const std::string &path, Kind kind,
                    std::string description);
    const Entry *find(const std::string &path) const;
    /** Resolve a path inside a mounted StatSet, if any. */
    const StatSet *findMount(const std::string &path,
                             std::string &leaf) const;

    /** Registration order. */
    std::vector<std::unique_ptr<Entry>> entries_;
    /** Path -> entry, for duplicate rejection and lookup. */
    std::map<std::string, Entry *> index_;
};

} // namespace rlr::stats

#endif // RLR_STATS_REGISTRY_HH

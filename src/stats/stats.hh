/**
 * @file
 * Lightweight statistics collection for simulator components.
 *
 * Components own a StatSet; counters registered with it can be
 * dumped by name, and derived metrics (hit rate, MPKI, IPC,
 * speedup, geometric means) are computed by free functions so the
 * same formulas are used by every experiment harness.
 */

#ifndef RLR_STATS_STATS_HH
#define RLR_STATS_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rlr::stats
{

/**
 * A named group of counters. Registration is by string name;
 * lookups during simulation use direct references, so the map is
 * only touched at setup/dump time.
 */
class StatSet
{
  public:
    /** @param name component name used as a dump prefix */
    explicit StatSet(std::string name = "");

    /**
     * Register (or fetch) a counter. The returned reference is
     * stable for the life of the StatSet.
     */
    uint64_t &counter(const std::string &name);

    /** @return counter value; 0 when never registered. */
    uint64_t value(const std::string &name) const;

    /** Zero every registered counter. */
    void reset();

    /** Accumulate all counters of @p other into this set. */
    void merge(const StatSet &other);

    /** @return "prefix.counter value" lines, sorted by name. */
    std::string dump() const;

    const std::string &name() const { return name_; }

    /** All (name, value) pairs, sorted by name. */
    std::vector<std::pair<std::string, uint64_t>> items() const;

  private:
    std::string name_;
    // std::map keeps iteration (and dumps) deterministically sorted,
    // and never invalidates references on insert.
    std::map<std::string, uint64_t> counters_;
};

/**
 * Internal-consistency check over a cache StatSet's per-type access
 * counters: for each type T in {LD, RFO, PF, WB},
 * T_hit + T_miss == T_access must hold.
 * @return "" when consistent, else a description of the first
 *         violated identity
 */
std::string accessConsistencyError(const StatSet &set);

/** @return a/b, or 0 when b == 0. */
double safeDiv(double a, double b);

/** Misses per kilo-instruction. */
double mpki(uint64_t misses, uint64_t instructions);

/** Hit rate in [0, 1]. */
double hitRate(uint64_t hits, uint64_t accesses);

/** IPC speedup of @p ipc over @p baseline_ipc. */
double speedup(double ipc, double baseline_ipc);

/** Geometric mean of positive values; 0 for empty input. */
double geomean(const std::vector<double> &values);

} // namespace rlr::stats

#endif // RLR_STATS_STATS_HH

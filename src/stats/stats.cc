#include "stats/stats.hh"

#include <cmath>
#include "util/format.hh"

namespace rlr::stats
{

StatSet::StatSet(std::string name) : name_(std::move(name)) {}

uint64_t &
StatSet::counter(const std::string &name)
{
    return counters_[name];
}

uint64_t
StatSet::value(const std::string &name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
StatSet::reset()
{
    for (auto &[_, v] : counters_)
        v = 0;
}

void
StatSet::merge(const StatSet &other)
{
    for (const auto &[k, v] : other.counters_)
        counters_[k] += v;
}

std::string
StatSet::dump() const
{
    std::string out;
    for (const auto &[k, v] : counters_) {
        if (name_.empty())
            out += util::format("{} {}\n", k, v);
        else
            out += util::format("{}.{} {}\n", name_, k, v);
    }
    return out;
}

std::vector<std::pair<std::string, uint64_t>>
StatSet::items() const
{
    return {counters_.begin(), counters_.end()};
}

std::string
accessConsistencyError(const StatSet &set)
{
    static const char *kTypes[] = {"LD", "RFO", "PF", "WB"};
    for (const char *t : kTypes) {
        const std::string type(t);
        const uint64_t accesses = set.value(type + "_access");
        const uint64_t hits = set.value(type + "_hit");
        const uint64_t misses = set.value(type + "_miss");
        if (hits + misses != accesses) {
            return util::format(
                "{}_hit ({}) + {}_miss ({}) != {}_access ({})",
                type, hits, type, misses, type, accesses);
        }
    }
    return "";
}

double
safeDiv(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

double
mpki(uint64_t misses, uint64_t instructions)
{
    return safeDiv(static_cast<double>(misses) * 1000.0,
                   static_cast<double>(instructions));
}

double
hitRate(uint64_t hits, uint64_t accesses)
{
    return safeDiv(static_cast<double>(hits),
                   static_cast<double>(accesses));
}

double
speedup(double ipc, double baseline_ipc)
{
    return safeDiv(ipc, baseline_ipc);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (const auto v : values) {
        if (v <= 0.0)
            return 0.0;
        acc += std::log(v);
    }
    return std::exp(acc / static_cast<double>(values.size()));
}

} // namespace rlr::stats

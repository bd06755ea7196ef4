#include "stats/registry.hh"

#include <stdexcept>

#include "util/format.hh"

namespace rlr::stats
{

uint64_t
HistogramData::total() const
{
    uint64_t n = overflow;
    for (const uint64_t b : buckets)
        n += b;
    return n;
}

HistogramData
HistogramData::from(const util::Histogram &h)
{
    HistogramData d;
    d.bucket_width = h.bucketWidth();
    d.buckets.reserve(h.numBuckets());
    for (size_t i = 0; i < h.numBuckets(); ++i)
        d.buckets.push_back(h.bucketCount(i));
    d.overflow = h.overflowCount();
    return d;
}

uint64_t
Snapshot::counter(const std::string &path) const
{
    for (const auto &[k, v] : counters)
        if (k == path)
            return v;
    return 0;
}

double
Snapshot::formula(const std::string &path) const
{
    for (const auto &[k, v] : formulas)
        if (k == path)
            return v;
    return 0.0;
}

const HistogramData *
Snapshot::histogram(const std::string &path) const
{
    for (const auto &[k, v] : histograms)
        if (k == path)
            return &v;
    return nullptr;
}

Registry::Entry &
Registry::addEntry(const std::string &path, Kind kind,
                   std::string description)
{
    if (path.empty())
        throw std::invalid_argument("Registry: empty stat path");
    if (index_.count(path)) {
        throw std::invalid_argument(util::format(
            "Registry: duplicate stat path '{}'", path));
    }
    auto entry = std::make_unique<Entry>();
    entry->path = path;
    entry->description = std::move(description);
    entry->kind = kind;
    Entry &ref = *entry;
    index_[path] = entry.get();
    entries_.push_back(std::move(entry));
    return ref;
}

uint64_t &
Registry::counter(const std::string &path, std::string description)
{
    Entry &e =
        addEntry(path, Kind::OwnedCounter, std::move(description));
    e.owned_counter = std::make_unique<uint64_t>(0);
    return *e.owned_counter;
}

void
Registry::bindCounter(const std::string &path, CounterFn fn,
                      std::string description)
{
    Entry &e =
        addEntry(path, Kind::BoundCounter, std::move(description));
    e.counter_fn = std::move(fn);
}

void
Registry::bindStatSet(const std::string &prefix, const StatSet *set,
                      std::string description)
{
    if (set == nullptr)
        throw std::invalid_argument("Registry: null StatSet");
    Entry &e =
        addEntry(prefix, Kind::StatSetMount, std::move(description));
    e.stat_set = set;
}

util::Histogram &
Registry::distribution(const std::string &path, size_t nbuckets,
                       uint64_t bucket_width,
                       std::string description)
{
    Entry &e = addEntry(path, Kind::OwnedDistribution,
                        std::move(description));
    e.owned_hist =
        std::make_unique<util::Histogram>(nbuckets, bucket_width);
    return *e.owned_hist;
}

void
Registry::bindDistribution(const std::string &path,
                           const util::Histogram *hist,
                           std::string description)
{
    if (hist == nullptr)
        throw std::invalid_argument("Registry: null histogram");
    Entry &e = addEntry(path, Kind::BoundDistribution,
                        std::move(description));
    e.bound_hist = hist;
}

void
Registry::formula(const std::string &path, FormulaFn fn,
                  std::string description)
{
    Entry &e = addEntry(path, Kind::Formula, std::move(description));
    e.formula_fn = std::move(fn);
}

const Registry::Entry *
Registry::find(const std::string &path) const
{
    const auto it = index_.find(path);
    return it == index_.end() ? nullptr : it->second;
}

const StatSet *
Registry::findMount(const std::string &path, std::string &leaf) const
{
    // A mounted set's counters live at "<prefix>.<counter>"; walk
    // candidate prefixes from the right so the longest mount wins.
    size_t dot = path.rfind('.');
    while (dot != std::string::npos) {
        const Entry *e = find(path.substr(0, dot));
        if (e && e->kind == Kind::StatSetMount) {
            leaf = path.substr(dot + 1);
            return e->stat_set;
        }
        dot = dot == 0 ? std::string::npos
                       : path.rfind('.', dot - 1);
    }
    return nullptr;
}

bool
Registry::has(const std::string &path) const
{
    if (find(path))
        return true;
    std::string leaf;
    return findMount(path, leaf) != nullptr;
}

uint64_t
Registry::counterValue(const std::string &path) const
{
    if (const Entry *e = find(path)) {
        switch (e->kind) {
          case Kind::OwnedCounter:
            return *e->owned_counter;
          case Kind::BoundCounter:
            return e->counter_fn();
          default:
            return 0;
        }
    }
    std::string leaf;
    if (const StatSet *set = findMount(path, leaf))
        return set->value(leaf);
    return 0;
}

double
Registry::value(const std::string &path) const
{
    if (const Entry *e = find(path)) {
        if (e->kind == Kind::Formula)
            return e->formula_fn(*this);
    }
    return static_cast<double>(counterValue(path));
}

std::string
Registry::description(const std::string &path) const
{
    const Entry *e = find(path);
    return e ? e->description : "";
}

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    for (const auto &e : entries_) {
        switch (e->kind) {
          case Kind::OwnedCounter:
            snap.counters.emplace_back(e->path, *e->owned_counter);
            break;
          case Kind::BoundCounter:
            snap.counters.emplace_back(e->path, e->counter_fn());
            break;
          case Kind::StatSetMount:
            for (const auto &[k, v] : e->stat_set->items())
                snap.counters.emplace_back(e->path + "." + k, v);
            break;
          case Kind::OwnedDistribution:
            snap.histograms.emplace_back(
                e->path, HistogramData::from(*e->owned_hist));
            break;
          case Kind::BoundDistribution:
            snap.histograms.emplace_back(
                e->path, HistogramData::from(*e->bound_hist));
            break;
          case Kind::Formula:
            snap.formulas.emplace_back(e->path,
                                       e->formula_fn(*this));
            break;
        }
    }
    return snap;
}

} // namespace rlr::stats

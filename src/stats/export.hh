/**
 * @file
 * Snapshot export/import: JSON and text serialization of a
 * stats::Snapshot, plus the minimal JSON reader shared by the
 * round-trip path and the report generator (tools/report), which
 * consumes SweepRunner --json exports.
 *
 * The JSON layout of a snapshot is
 *
 *   {
 *     "counters":   { "llc.LD_hit": 123, ... },
 *     "formulas":   { "llc.demand_hit_rate": 0.5, ... },
 *     "histograms": { "dram.read_latency":
 *                       { "bucket_width": 16,
 *                         "buckets": [1, 2, ...],
 *                         "overflow": 0 }, ... }
 *   }
 *
 * with keys in registration order. toJson/fromJson round-trip
 * counters and histograms exactly (integers); formula values are
 * doubles printed with enough digits for a stable golden file.
 */

#ifndef RLR_STATS_EXPORT_HH
#define RLR_STATS_EXPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "stats/registry.hh"

namespace rlr::stats
{

namespace json
{

/** One parsed JSON value (small recursive DOM). */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    /** Insertion-ordered object members. */
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member by key; nullptr when absent (or not object). */
    const Value *find(const std::string &key) const;

    /** Member as number/string with a default when absent/null. */
    double numberOr(const std::string &key, double def) const;
    std::string stringOr(const std::string &key,
                         std::string def) const;
};

/**
 * Deepest array/object nesting parse() accepts. The parser recurses
 * once per level and reads files other processes write (journal
 * records, heartbeats, leases, event logs, profiles), so a hostile
 * or corrupt input must fail with an error, not overflow the stack.
 * The exports nest a handful of levels; a profile tree two per span.
 */
inline constexpr int kMaxDepth = 256;

/**
 * Parse a complete JSON document.
 * @throws std::runtime_error on malformed input or nesting deeper
 *         than kMaxDepth
 */
Value parse(const std::string &text);

/** Escape a string for embedding in JSON (no quotes added). */
std::string escape(const std::string &s);

/** Format a double as a JSON number (null when non-finite). */
std::string number(double v);

} // namespace json

/** Serialize a snapshot (layout documented above). */
std::string toJson(const Snapshot &snap);

/**
 * Rebuild a snapshot from toJson() output (counters and
 * histograms round-trip exactly).
 * @throws std::runtime_error on malformed input
 */
Snapshot fromJson(const std::string &text);

/** Parse a snapshot out of an already-parsed JSON object. */
Snapshot fromJson(const json::Value &root);

} // namespace rlr::stats

#endif // RLR_STATS_EXPORT_HH

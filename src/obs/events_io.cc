#include "obs/events_io.hh"

#include <stdexcept>

#include "stats/export.hh"
#include "util/atomic_file.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace rlr::obs
{

namespace
{

using stats::json::Value;

/** Columns of one compact event row, in serialization order. */
constexpr size_t kEventArity = 14;

[[noreturn]] void
malformed(const std::string &what)
{
    throw std::runtime_error("events JSON: " + what);
}

uint64_t
asU64(const Value &v, const char *what)
{
    if (!v.isNumber() || v.number < 0)
        malformed(util::format("'{}' is not a non-negative number",
                               what));
    return static_cast<uint64_t>(v.number);
}

uint64_t
memberU64(const Value &obj, const char *key)
{
    const Value *v = obj.find(key);
    if (!v)
        malformed(util::format("missing member '{}'", key));
    return asU64(*v, key);
}

std::vector<uint64_t>
memberU64Array(const Value &obj, const char *key)
{
    const Value *v = obj.find(key);
    if (!v || !v->isArray())
        malformed(util::format("missing array member '{}'", key));
    std::vector<uint64_t> out;
    out.reserve(v->array.size());
    for (const Value &e : v->array)
        out.push_back(asU64(e, key));
    return out;
}

uint64_t
checkedEnum(uint64_t value, uint64_t limit, const char *what)
{
    if (value >= limit)
        malformed(util::format("{} value {} out of range", what,
                               value));
    return value;
}

void
appendEventRow(std::string &out, const Event &ev)
{
    out += util::format(
        "[{}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}]",
        ev.access_no, static_cast<unsigned>(ev.kind),
        static_cast<unsigned>(ev.type), ev.set,
        static_cast<unsigned>(ev.way), ev.address, ev.pc,
        static_cast<unsigned>(ev.cpu), ev.priority, ev.victim_age,
        ev.victim_hits, static_cast<unsigned>(ev.victim_recency),
        static_cast<unsigned>(ev.victim_last_type),
        static_cast<unsigned>(ev.reason));
}

Event
parseEventRow(const Value &row)
{
    if (!row.isArray() || row.array.size() != kEventArity)
        malformed(util::format("event row is not a {}-element "
                               "array",
                               kEventArity));
    auto col = [&](size_t i, const char *what) {
        return asU64(row.array[i], what);
    };
    Event ev;
    ev.access_no = col(0, "access_no");
    ev.kind = static_cast<EventKind>(checkedEnum(
        col(1, "kind"), kNumEventKinds, "event kind"));
    ev.type = static_cast<trace::AccessType>(checkedEnum(
        col(2, "type"), trace::kNumAccessTypes, "access type"));
    ev.set = static_cast<uint32_t>(col(3, "set"));
    ev.way = static_cast<uint8_t>(
        checkedEnum(col(4, "way"), 256, "way"));
    ev.address = col(5, "address");
    ev.pc = col(6, "pc");
    ev.cpu = static_cast<uint8_t>(
        checkedEnum(col(7, "cpu"), 256, "cpu"));
    ev.priority = col(8, "priority");
    ev.victim_age = static_cast<uint32_t>(col(9, "victim_age"));
    ev.victim_hits = static_cast<uint32_t>(col(10, "victim_hits"));
    ev.victim_recency = static_cast<uint8_t>(checkedEnum(
        col(11, "victim_recency"), 256, "victim_recency"));
    ev.victim_last_type = static_cast<trace::AccessType>(
        checkedEnum(col(12, "victim_last_type"),
                    trace::kNumAccessTypes, "victim_last_type"));
    ev.reason = static_cast<cache::BypassReason>(checkedEnum(
        col(13, "reason"), cache::kNumBypassReasons,
        "bypass reason"));
    return ev;
}

void
appendU64Array(std::string &out, const char *key,
               const std::vector<uint64_t> &values)
{
    out += util::format("      \"{}\": [", key);
    for (size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ", ";
        out += util::format("{}", values[i]);
    }
    out += "]";
}

} // namespace

std::string
eventsToJson(const std::vector<CellEvents> &cells)
{
    using stats::json::escape;

    std::string out = "{\n  \"version\": 1,\n  \"cells\": [\n";
    for (size_t c = 0; c < cells.size(); ++c) {
        const CellEvents &cell = cells[c];
        const EventLogData &log = cell.log;
        out += "    {\n";
        out += util::format("      \"workload\": \"{}\",\n",
                            escape(cell.workload));
        out += util::format("      \"policy\": \"{}\",\n",
                            escape(cell.policy));
        // As a string: 64-bit seeds do not survive the JSON
        // number path (doubles lose integers past 2^53).
        out += util::format("      \"seed\": \"{}\",\n", cell.seed);
        out += util::format("      \"capacity\": {},\n",
                            log.config.capacity);
        out += util::format("      \"sample_sets\": {},\n",
                            log.config.sample_sets);
        out += util::format("      \"ways\": {},\n", log.ways);
        out += util::format("      \"recorded\": {},\n",
                            log.recorded);
        out += util::format("      \"overwritten\": {},\n",
                            log.overwritten);
        out += util::format("      \"sampled_out\": {},\n",
                            log.sampled_out);
        appendU64Array(out, "set_accesses", log.set_accesses);
        out += ",\n";
        appendU64Array(out, "set_misses", log.set_misses);
        out += ",\n      \"events\": [\n";
        for (size_t i = 0; i < log.events.size(); ++i) {
            out += "        ";
            appendEventRow(out, log.events[i]);
            out += i + 1 < log.events.size() ? ",\n" : "\n";
        }
        out += "      ]\n";
        out += c + 1 < cells.size() ? "    },\n" : "    }\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::vector<CellEvents>
eventsFromJson(const std::string &text)
{
    const Value root = stats::json::parse(text);
    if (!root.isObject())
        malformed("document is not an object");
    if (memberU64(root, "version") != 1)
        malformed("unsupported version");
    const Value *cells_v = root.find("cells");
    if (!cells_v || !cells_v->isArray())
        malformed("missing 'cells' array");

    std::vector<CellEvents> cells;
    cells.reserve(cells_v->array.size());
    for (const Value &cv : cells_v->array) {
        if (!cv.isObject())
            malformed("cell is not an object");
        CellEvents cell;
        cell.workload = cv.stringOr("workload", "");
        cell.policy = cv.stringOr("policy", "");
        const Value *seed_v = cv.find("seed");
        if (!seed_v)
            malformed("missing member 'seed'");
        if (seed_v->isString()) {
            try {
                cell.seed = std::stoull(seed_v->string);
            } catch (const std::exception &) {
                malformed("'seed' is not an integer string");
            }
        } else {
            cell.seed = asU64(*seed_v, "seed");
        }
        cell.log.config.capacity =
            static_cast<uint32_t>(memberU64(cv, "capacity"));
        cell.log.config.sample_sets =
            static_cast<uint32_t>(memberU64(cv, "sample_sets"));
        cell.log.ways =
            static_cast<uint32_t>(memberU64(cv, "ways"));
        cell.log.recorded = memberU64(cv, "recorded");
        cell.log.overwritten = memberU64(cv, "overwritten");
        cell.log.sampled_out = memberU64(cv, "sampled_out");
        cell.log.set_accesses = memberU64Array(cv, "set_accesses");
        cell.log.set_misses = memberU64Array(cv, "set_misses");
        const Value *events_v = cv.find("events");
        if (!events_v || !events_v->isArray())
            malformed("missing 'events' array");
        cell.log.events.reserve(events_v->array.size());
        for (const Value &row : events_v->array)
            cell.log.events.push_back(parseEventRow(row));
        cells.push_back(std::move(cell));
    }
    return cells;
}

void
writeEvents(const std::string &path,
            const std::vector<CellEvents> &cells)
{
    util::atomicWriteFileOrFatal(path, eventsToJson(cells));
}

} // namespace rlr::obs

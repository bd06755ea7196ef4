/**
 * @file
 * Simulated-accesses-per-second benchmark for the LLC hot path —
 * the perf-trajectory artifact behind BENCH_sim_throughput.json.
 *
 * For every policy it replays one deterministic synthetic trace
 * through two cache builds:
 *
 *  - cache:    the production cache::Cache;
 *  - baseline: a frozen re-implementation of the pre-optimization
 *              hot path (AoS block array, per-access string-keyed
 *              counter lookups, a fresh std::vector<BlockView>
 *              allocation per victim fill), kept behaviourally
 *              identical (same MSHR and writeback-bypass protocol)
 *              so its counts must match.
 *
 * Every run doubles as a differential oracle: the two builds must
 * agree on all replacement/stat counters and on the checksum of
 * per-access completion times, or the run fails (exit 1). This is
 * the one check of the cache's timing and MSHR behaviour against an
 * independent implementation; scripts/ci.sh exports the JSON every
 * run.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "core/policy_factory.hh"
#include "obs/profiler.hh"
#include "stats/stats.hh"
#include "trace/record.hh"
#include "util/args.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"

using namespace rlr;

namespace
{

/** Zero-state backing memory with a fixed miss latency. */
class FlatMemory : public cache::MemoryLevel
{
  public:
    uint64_t
    access(const cache::MemRequest &req, uint64_t now) override
    {
        if (req.type == trace::AccessType::Writeback)
            return now;
        return now + 100;
    }
    const std::string &name() const override { return name_; }

  private:
    std::string name_ = "flat";
};

/** One pre-generated trace record (kept minimal for replay). */
struct Access
{
    uint64_t address;
    uint64_t pc;
    trace::AccessType type;
};

/** Deterministic hot/streaming/uniform mix over a line pool. */
std::vector<Access>
makeTrace(uint64_t accesses, uint32_t pool_lines, uint64_t seed)
{
    util::Rng rng(seed ^ 0x51417ULL);
    const uint32_t hot = std::max<uint32_t>(1, pool_lines / 64);
    std::vector<Access> trace;
    trace.reserve(accesses);
    for (uint64_t i = 0; i < accesses; ++i) {
        uint64_t idx;
        const double pick = rng.nextDouble();
        if (pick < 0.35)
            idx = rng.nextBounded(hot);
        else if (pick < 0.50)
            idx = i % pool_lines;
        else
            idx = rng.nextBounded(pool_lines);
        Access a;
        a.address = idx * 64;
        const double t = rng.nextDouble();
        if (t < 0.10)
            a.type = trace::AccessType::Rfo;
        else if (t < 0.20)
            a.type = trace::AccessType::Prefetch;
        else if (t < 0.30)
            a.type = trace::AccessType::Writeback;
        else
            a.type = trace::AccessType::Load;
        a.pc = a.type == trace::AccessType::Writeback
                   ? 0
                   : 0x400000 + 4 * rng.nextBounded(256);
        trace.push_back(a);
    }
    return trace;
}

/**
 * Frozen pre-optimization hot path: array-of-structs blocks,
 * string-keyed StatSet lookups on every access, a fresh BlockView
 * vector per victim fill, and virtual dispatch into the policy.
 * The *protocol* (MSHR reservation, writeback-bypass denial) is
 * the fixed one, so all counters must match the production cache —
 * only the per-access software cost is frozen at the old design.
 */
class BaselineCache
{
  public:
    BaselineCache(cache::CacheGeometry geom,
                  std::unique_ptr<cache::ReplacementPolicy> policy,
                  cache::MemoryLevel *next)
        : geom_(std::move(geom)), policy_(std::move(policy)),
          next_(next), stats_(geom_.name)
    {
        geom_.validate();
        blocks_.resize(static_cast<size_t>(geom_.numSets()) *
                       geom_.ways);
        policy_->bind(geom_);
    }

    uint64_t
    access(const cache::MemRequest &req, uint64_t now)
    {
        now += geom_.latency;
        const uint64_t line =
            cache::CacheGeometry::lineAddress(req.address);
        const uint64_t tag = geom_.tag(line);
        const uint32_t set = geom_.setIndex(line);

        uint32_t hit_way = geom_.ways;
        for (uint32_t w = 0; w < geom_.ways; ++w) {
            const Block &b = block(set, w);
            if (b.valid && b.tag == tag) {
                hit_way = w;
                break;
            }
        }
        const bool demand = trace::isDemand(req.type);

        if (hit_way != geom_.ways) {
            Block &b = block(set, hit_way);
            const bool merged = b.ready_at > now;
            if (demand)
                b.prefetch = false;
            if (req.type == trace::AccessType::Writeback)
                b.dirty = true;
            if (merged) {
                countAccess(req.type, false);
                ++stats_.counter("mshr_merges");
                return std::max(now, b.ready_at);
            }
            countAccess(req.type, true);
            cache::AccessContext ctx;
            ctx.cpu = req.cpu;
            ctx.set = set;
            ctx.way = hit_way;
            ctx.full_addr = req.address;
            ctx.pc = req.pc;
            ctx.type = req.type;
            ctx.hit = true;
            policy_->onAccess(ctx);
            return now;
        }

        countAccess(req.type, false);
        if (req.type == trace::AccessType::Writeback) {
            fill(req, now, /*dirty=*/true);
            return now;
        }

        const uint64_t issue = now;
        uint64_t ready = next_->access(req, issue);
        ready = std::max(ready, issue);
        const uint64_t start = mshrAdmit(issue);
        ready += start - issue;
        inflight_.push(ready);
        fill(req, ready, /*dirty=*/false);
        return ready;
    }

    const stats::StatSet &statSet() const { return stats_; }

  private:
    struct Block
    {
        bool valid = false;
        bool dirty = false;
        bool prefetch = false;
        uint64_t tag = 0;
        uint64_t address = 0;
        uint64_t ready_at = 0;
    };

    Block &
    block(uint32_t set, uint32_t way)
    {
        return blocks_[static_cast<size_t>(set) * geom_.ways + way];
    }

    /** The frozen key builder: string temporaries per call. */
    static std::string
    typeKey(trace::AccessType type, const char *suffix)
    {
        return std::string(trace::accessTypeName(type)) + "_" +
               suffix;
    }

    void
    countAccess(trace::AccessType type, bool hit)
    {
        // The frozen cost model: string-keyed map lookups on every
        // single access.
        ++stats_.counter(typeKey(type, "access"));
        ++stats_.counter(typeKey(type, hit ? "hit" : "miss"));
    }

    uint64_t
    mshrAdmit(uint64_t now)
    {
        while (!inflight_.empty() && inflight_.top() <= now)
            inflight_.pop();
        if (inflight_.size() >= geom_.mshrs) {
            now = std::max(now, inflight_.top());
            inflight_.pop();
            ++stats_.counter("mshr_stalls");
        }
        return now;
    }

    void
    fill(const cache::MemRequest &req, uint64_t ready, bool dirty)
    {
        const uint64_t line =
            cache::CacheGeometry::lineAddress(req.address);
        const uint32_t set = geom_.setIndex(line);

        uint32_t way = geom_.ways;
        for (uint32_t w = 0; w < geom_.ways; ++w) {
            if (!block(set, w).valid) {
                way = w;
                break;
            }
        }

        if (way == geom_.ways) {
            // The frozen cost model: one heap allocation per
            // victim selection.
            std::vector<cache::BlockView> views(geom_.ways);
            for (uint32_t w = 0; w < geom_.ways; ++w) {
                const Block &b = block(set, w);
                views[w] = cache::BlockView{b.valid, b.dirty,
                                            b.prefetch, b.address};
            }
            cache::AccessContext ctx;
            ctx.cpu = req.cpu;
            ctx.set = set;
            ctx.full_addr = req.address;
            ctx.pc = req.pc;
            ctx.type = req.type;
            ctx.hit = false;
            way = policy_->findVictim(ctx, views);
            if (way == cache::ReplacementPolicy::kBypass) {
                if (req.type != trace::AccessType::Writeback) {
                    ++stats_.counter("bypasses");
                    return;
                }
                ++stats_.counter("wb_bypass_denied");
                ctx.allow_bypass = false;
                way = policy_->findVictim(ctx, views);
                if (way == cache::ReplacementPolicy::kBypass)
                    way = 0;
            }
            util::ensure(way < geom_.ways,
                         "BaselineCache: bad victim way");

            Block &victim = block(set, way);
            if (victim.valid) {
                policy_->onEviction(
                    set, way,
                    cache::BlockView{victim.valid, victim.dirty,
                                     victim.prefetch,
                                     victim.address});
                ++stats_.counter("evictions");
                if (victim.dirty) {
                    cache::MemRequest wb;
                    wb.address = victim.address;
                    wb.pc = 0;
                    wb.type = trace::AccessType::Writeback;
                    wb.cpu = req.cpu;
                    ++stats_.counter("writebacks_issued");
                    next_->access(wb, ready);
                }
            }
        }

        Block &b = block(set, way);
        b.valid = true;
        b.dirty = dirty;
        b.prefetch = req.type == trace::AccessType::Prefetch;
        b.tag = geom_.tag(line);
        b.address = line;
        b.ready_at = ready;

        cache::AccessContext ctx;
        ctx.cpu = req.cpu;
        ctx.set = set;
        ctx.way = way;
        ctx.full_addr = req.address;
        ctx.pc = req.pc;
        ctx.type = req.type;
        ctx.hit = false;
        policy_->onAccess(ctx);
    }

    cache::CacheGeometry geom_;
    std::unique_ptr<cache::ReplacementPolicy> policy_;
    cache::MemoryLevel *next_;
    stats::StatSet stats_;
    std::vector<Block> blocks_;
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<>>
        inflight_;
};

cache::CacheGeometry
benchGeometry()
{
    cache::CacheGeometry geom;
    geom.name = "llc";
    geom.size_bytes = 1 * 1024 * 1024; // 1024 sets x 16 ways
    geom.ways = 16;
    geom.latency = 20;
    geom.mshrs = 16;
    return geom;
}

/** Replay outcome of one (policy, build) measurement. */
struct Replay
{
    /** Best observed throughput, simulated accesses/second. */
    double mps = 0.0;
    /** Sum of per-access completion times (cross-build oracle). */
    uint64_t time_checksum = 0;
    /** Final counters (cross-build oracle). */
    std::vector<std::pair<std::string, uint64_t>> stats;
};

/**
 * Replay the trace @p reps times on fresh caches built by
 * @p make_cache (returning a cache with access()/statSet());
 * keep the fastest wall-clock rep and the (rep-invariant)
 * counters + completion-time checksum of the last. The replay
 * loop calls access() directly — no std::function indirection —
 * so the measured cost is the cache's own hot path.
 */
template <class CacheT, class MakeFn>
Replay
measure(const std::vector<Access> &trace, unsigned reps,
        MakeFn make_cache)
{
    Replay out;
    for (unsigned r = 0; r < reps; ++r) {
        std::unique_ptr<CacheT> c = make_cache();
        uint64_t checksum = 0;
        uint64_t now = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (const Access &a : trace) {
            cache::MemRequest req;
            req.address = a.address;
            req.pc = a.pc;
            req.type = a.type;
            checksum += c->access(req, now);
            now += 4;
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double secs =
            std::chrono::duration<double>(t1 - t0).count();
        if (secs > 0.0) {
            out.mps = std::max(
                out.mps, static_cast<double>(trace.size()) / secs);
        }
        out.time_checksum = checksum;
        out.stats = c->statSet().items();
    }
    return out;
}

/**
 * Compare two counter dumps as sparse maps: every name present on
 * either side must have the same value on both (absent == 0, so
 * eagerly- and lazily-registered stat sets compare equal).
 * @return "" when equal, else the first difference
 */
std::string
countsDiff(const std::vector<std::pair<std::string, uint64_t>> &a,
           const std::vector<std::pair<std::string, uint64_t>> &b)
{
    auto lookup =
        [](const std::vector<std::pair<std::string, uint64_t>> &v,
           const std::string &name) -> uint64_t {
        for (const auto &[n, val] : v)
            if (n == name)
                return val;
        return 0;
    };
    for (const auto &[name, val] : a) {
        if (lookup(b, name) != val)
            return util::format("{}: {} vs {}", name, val,
                                lookup(b, name));
    }
    for (const auto &[name, val] : b) {
        if (lookup(a, name) != val)
            return util::format("{}: {} vs {}", name,
                                lookup(a, name), val);
    }
    return "";
}

/** JSON string escaping (policy names reach the export). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/**
 * Hot-path phase times from one profiled replay of the production
 * cache (obs scoped profiler, flattened across the call tree).
 * lookup/victim/policy are span totals; fill is the fill span's
 * self time (victim handling is nested inside it); other is the
 * access span's self time; total is the access span's total.
 */
struct PhaseBreakdown
{
    uint64_t lookup_ns = 0;
    uint64_t victim_ns = 0;
    uint64_t policy_ns = 0;
    uint64_t fill_ns = 0;
    uint64_t other_ns = 0;
    uint64_t total_ns = 0;
};

void
accumulatePhases(const obs::ProfileNode &node, PhaseBreakdown &pb)
{
    if (node.name == "sim.llc.lookup")
        pb.lookup_ns += node.total_ns;
    else if (node.name == "sim.llc.victim")
        pb.victim_ns += node.total_ns;
    else if (node.name == "sim.llc.policy")
        pb.policy_ns += node.total_ns;
    else if (node.name == "sim.llc.fill")
        pb.fill_ns += node.self_ns;
    else if (node.name == "sim.llc.access") {
        pb.other_ns += node.self_ns;
        pb.total_ns += node.total_ns;
    }
    for (const auto &c : node.children)
        accumulatePhases(c, pb);
}

/**
 * One extra (untimed) replay of the production cache with the
 * scoped profiler armed, yielding the per-phase breakdown. Kept separate
 * from the throughput reps so profiling overhead never pollutes
 * the Macc/s numbers.
 */
template <class MakeFn>
PhaseBreakdown
profilePhases(const std::vector<Access> &trace, MakeFn make_cache)
{
    obs::Profiler &prof = obs::Profiler::instance();
    prof.reset();
    prof.setEnabled(true);
    {
        auto c = make_cache();
        c->setProfiled(true);
        uint64_t now = 0;
        for (const Access &a : trace) {
            cache::MemRequest req;
            req.address = a.address;
            req.pc = a.pc;
            req.type = a.type;
            c->access(req, now);
            now += 4;
        }
    }
    prof.setEnabled(false);
    const obs::ProfileData data = prof.collect();
    prof.reset();
    PhaseBreakdown pb;
    for (const auto &r : data.roots)
        accumulatePhases(r, pb);
    return pb;
}

/** One policy's benchmark row. */
struct PolicyResult
{
    std::string policy;
    double mps = 0.0;
    double baseline_mps = 0.0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t bypasses = 0;
    bool counts_match = false;
    PhaseBreakdown phases;

    double
    speedupVsBaseline() const
    {
        return baseline_mps > 0.0 ? mps / baseline_mps : 0.0;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser parser(
        "LLC hot-path throughput benchmark: simulated accesses/sec "
        "per policy for the production cache and a frozen "
        "pre-optimization baseline, with a built-in cross-build "
        "equivalence oracle");
    parser.addOption("policies", "",
                     "Comma-separated policies (default: "
                     "LRU,SRRIP,BRRIP,DRRIP,SHiP,SHiP++,RLR)");
    parser.addOption("accesses", "300000",
                     "Trace length replayed per measurement");
    parser.addOption("reps", "3",
                     "Timed repetitions per build (best is kept)");
    parser.addOption("seed", "42", "Trace random seed");
    parser.addOption("pool", "24576",
                     "Distinct lines in the trace's address pool "
                     "(default: 1.5x the benchmark LLC's 16384 "
                     "lines, a mixed hit/miss replay)");
    parser.addOption("json", "",
                     "Write the per-policy results as JSON "
                     "(BENCH_sim_throughput.json schema, "
                     "docs/PERFORMANCE.md)");
    parser.addFlag("stable-json",
                   "Zero wall-clock throughput fields in the JSON "
                   "export so same-seed runs are byte-identical");
    parser.addFlag("csv", "Emit CSV instead of an aligned table");
    if (!parser.parse(argc, argv))
        return 0;

    std::vector<std::string> policies = parser.getList("policies");
    if (policies.empty()) {
        policies = {"LRU",  "SRRIP",  "BRRIP", "DRRIP",
                    "SHiP", "SHiP++", "RLR"};
    }
    const uint64_t accesses = parser.getUint("accesses");
    const unsigned reps =
        static_cast<unsigned>(std::max<uint64_t>(
            1, parser.getUint("reps")));
    const uint64_t seed = parser.getUint("seed");
    const uint32_t pool =
        static_cast<uint32_t>(std::max<uint64_t>(
            1, parser.getUint("pool")));
    const std::string json = parser.get("json");
    const bool stable = parser.getFlag("stable-json");

    const auto trace = makeTrace(accesses, pool, seed);

    std::vector<PolicyResult> results;
    bool oracle_failed = false;
    for (const auto &name : policies) {
        PolicyResult row;
        row.policy = name;

        FlatMemory mem;
        auto make_prod = [&] {
            return std::make_unique<cache::Cache>(
                benchGeometry(), core::makePolicy(name, seed),
                &mem);
        };
        const Replay prod =
            measure<cache::Cache>(trace, reps, make_prod);
        const Replay base =
            measure<BaselineCache>(trace, reps, [&] {
                return std::make_unique<BaselineCache>(
                    benchGeometry(),
                    core::makePolicy(name, seed), &mem);
            });

        row.mps = prod.mps;
        row.baseline_mps = base.mps;
        row.phases = profilePhases(trace, make_prod);

        // Cross-build equivalence oracle: the two hot paths must
        // be behaviourally indistinguishable.
        std::string err = countsDiff(prod.stats, base.stats);
        if (err.empty() &&
            prod.time_checksum != base.time_checksum) {
            err = util::format(
                "completion-time checksum cache={} baseline={}",
                prod.time_checksum, base.time_checksum);
        }
        row.counts_match = err.empty();
        if (!row.counts_match) {
            oracle_failed = true;
            std::printf("EQUIVALENCE FAILURE [%s]: %s\n",
                        name.c_str(), err.c_str());
        }

        auto find = [&](const char *n) -> uint64_t {
            uint64_t total = 0;
            for (const auto &[key, val] : prod.stats) {
                if (key == n ||
                    (std::string(n) == "hit" &&
                     key.size() > 4 &&
                     key.compare(key.size() - 4, 4, "_hit") == 0) ||
                    (std::string(n) == "miss" &&
                     key.size() > 5 &&
                     key.compare(key.size() - 5, 5, "_miss") == 0))
                    total += val;
            }
            return total;
        };
        row.hits = find("hit");
        row.misses = find("miss");
        row.evictions = find("evictions");
        row.bypasses = find("bypasses");
        results.push_back(std::move(row));
    }

    util::Table table({"Policy", "Macc/s", "Baseline Macc/s",
                       "vs baseline", "Match"});
    std::vector<double> vs_baseline;
    for (const auto &r : results) {
        table.addRow({r.policy, util::Table::fmt(r.mps / 1e6, 2),
                      util::Table::fmt(r.baseline_mps / 1e6, 2),
                      util::Table::fmt(r.speedupVsBaseline(), 2),
                      r.counts_match ? "yes" : "NO"});
        if (r.speedupVsBaseline() > 0.0)
            vs_baseline.push_back(r.speedupVsBaseline());
    }
    std::puts("=== LLC hot-path throughput ===");
    std::fputs((parser.getFlag("csv") ? table.csv()
                                      : table.render())
                   .c_str(),
               stdout);
    const double geo_baseline = stats::geomean(vs_baseline);
    std::printf("geomean speedup: %.2fx vs baseline\n",
                geo_baseline);

    util::Table phase_table({"Policy", "lookup ms", "victim ms",
                             "policy ms", "fill ms", "other ms",
                             "total ms"});
    for (const auto &r : results) {
        auto ms = [](uint64_t ns) {
            return util::Table::fmt(
                static_cast<double>(ns) / 1e6, 2);
        };
        phase_table.addRow({r.policy, ms(r.phases.lookup_ns),
                            ms(r.phases.victim_ns),
                            ms(r.phases.policy_ns),
                            ms(r.phases.fill_ns),
                            ms(r.phases.other_ns),
                            ms(r.phases.total_ns)});
    }
    std::puts("\n=== Hot-path phase times (profiled replay) ===");
    std::fputs((parser.getFlag("csv") ? phase_table.csv()
                                      : phase_table.render())
                   .c_str(),
               stdout);

    if (!json.empty()) {
        FILE *f = std::fopen(json.c_str(), "w");
        if (!f)
            util::fatal("cannot write '{}'", json);
        auto num = [&](double v) { return stable ? 0.0 : v; };
        auto nsv = [&](uint64_t v) {
            return static_cast<unsigned long long>(stable ? 0 : v);
        };
        std::fprintf(f,
                     "{\n  \"benchmark\": \"sim_throughput\",\n"
                     "  \"accesses\": %llu,\n  \"reps\": %u,\n"
                     "  \"seed\": %llu,\n  \"pool\": %u,\n"
                     "  \"stable\": %s,\n  \"policies\": [\n",
                     static_cast<unsigned long long>(accesses),
                     reps,
                     static_cast<unsigned long long>(seed), pool,
                     stable ? "true" : "false");
        for (size_t i = 0; i < results.size(); ++i) {
            const auto &r = results[i];
            std::fprintf(
                f,
                "    {\"policy\": \"%s\", \"mps\": %.0f, "
                "\"baseline_mps\": %.0f, "
                "\"speedup_vs_baseline\": %.3f, "
                "\"hits\": %llu, \"misses\": %llu, "
                "\"evictions\": %llu, \"bypasses\": %llu, "
                "\"counts_match\": %s, "
                "\"phase_self_ns\": {\"lookup\": %llu, "
                "\"victim\": %llu, \"policy\": %llu, "
                "\"fill\": %llu, \"other\": %llu, "
                "\"total\": %llu}}%s\n",
                jsonEscape(r.policy).c_str(), num(r.mps),
                num(r.baseline_mps), num(r.speedupVsBaseline()),
                static_cast<unsigned long long>(r.hits),
                static_cast<unsigned long long>(r.misses),
                static_cast<unsigned long long>(r.evictions),
                static_cast<unsigned long long>(r.bypasses),
                r.counts_match ? "true" : "false",
                nsv(r.phases.lookup_ns), nsv(r.phases.victim_ns),
                nsv(r.phases.policy_ns), nsv(r.phases.fill_ns),
                nsv(r.phases.other_ns), nsv(r.phases.total_ns),
                i + 1 < results.size() ? "," : "");
        }
        std::fprintf(f,
                     "  ],\n"
                     "  \"geomean_speedup_vs_baseline\": %.3f\n}\n",
                     num(geo_baseline));
        std::fclose(f);
        std::printf("wrote %s\n", json.c_str());
    }

    return oracle_failed ? 1 : 0;
}

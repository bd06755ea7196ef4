#include "workloads.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>

#include <sys/resource.h>

#include "cache/cache.hh"
#include "core/policy_factory.hh"
#include "layers.hh"
#include "mem/dram.hh"
#include "ml/analysis.hh"
#include "ml/offline.hh"
#include "policies/belady.hh"
#include "policies/lru.hh"
#include "sim/experiment.hh"
#include "sim/sweep_runner.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"
#include "util/format.hh"
#include "verify/differential.hh"

namespace hostbench
{

using namespace rlr;

namespace
{

// ---- The fixed work of each workload ------------------------------

/** spec_sweep: the fig10 subset, every cell single-core. */
const std::vector<std::string> kSpecWorkloads = {
    "471.omnetpp",   "429.mcf", "403.gcc",
    "483.xalancbmk", "470.lbm", "400.perlbench"};
const std::vector<std::string> kSpecPolicies = {
    "LRU", "DRRIP", "SHiP", "Hawkeye", "RLR"};
constexpr uint64_t kSpecWarmup = 50'000;
constexpr uint64_t kSpecInstructions = 250'000;

/** Rounds every run makes, however long they take. */
constexpr size_t kMinRounds = 11;
/** Seconds of set-ups timed before each sweep round (tens of
 *  microseconds each; every other workload sets up once a round). */
constexpr double kSpecSetupBudgetS = 0.04;

/** llc_replay: LRU-captured streams of the training workloads. */
constexpr uint64_t kReplayWarmup = 50'000;
constexpr uint64_t kReplayInstructions = 800'000;
/** Leading share of every stream replayed untimed to fill the LLC;
 *  the notes report how full it is when timing starts. */
constexpr double kReplayWarmShare = 0.45;
/** Least share of timed replay accesses that must evict, in %: below
 *  it the LLC is filling, not replacing, and the workload no longer
 *  measures the policies' victim selection. */
constexpr double kMinReplayEvictPct = 50.0;
/** Cycles between two replayed accesses. No core paces a replay;
 *  the gap outlasts a DRAM fill, so no access merges into an
 *  in-flight miss and hit or miss is the policy's doing alone. */
constexpr uint64_t kReplayIssueGap = 200;
/** Policies checked against the verify reference models, on a
 *  prefix of every stream, in a small cache so victims matter. */
const std::vector<std::string> kCrossCheckPolicies = {
    "LRU", "DRRIP", "SHiP", "RLR"};
constexpr size_t kCrossCheckPrefix = 20'000;
constexpr uint32_t kCrossCheckSets = 256;

/** offline_rl: the first of rl_learning_curve's default workloads,
 *  at its default scale (--warmup 300000, --rl-instructions 300000),
 *  one epoch. One workload keeps a round near 2.5 s, so a run makes
 *  kMinRounds of them. */
const std::vector<std::string> kOfflineWorkloads = {"471.omnetpp"};
constexpr uint64_t kOfflineWarmup = 300'000;
constexpr uint64_t kOfflineInstructions = 300'000;
constexpr unsigned kOfflineEpochs = 1;
/** Largest |residual| (%) between the calibrated layer total and the
 *  untraced time that still counts the per-layer split as sound. */
constexpr double kMaxResidualPct = 20.0;
/** Extractor states used to time actGreedy / trainStep alone. */
constexpr size_t kIsolatedStates = 256;
constexpr int kActRepeats = 20;
constexpr int kTrainSteps = 200;

sim::SimParams
makeParams(uint64_t warmup, uint64_t instructions, uint64_t seed)
{
    sim::SimParams p;
    p.warmup_instructions = warmup;
    p.sim_instructions = instructions;
    p.seed = seed;
    return p;
}

std::vector<std::string>
trainingNames()
{
    std::vector<std::string> names;
    for (const auto &w : trace::trainingWorkloads())
        names.push_back(w.name);
    return names;
}

// ---- Timing helpers ------------------------------------------------

/** Wall time of one call of @p fn, in seconds. */
double
timeS(const std::function<void()> &fn)
{
    const double t0 = clockS();
    fn();
    return clockS() - t0;
}

/**
 * Run @p round until @p seconds have passed, never starting a round
 * that would (at the median round time so far) end past the budget,
 * but at least kMinRounds times. @p round returns the seconds it
 * timed. @return each round's timed seconds.
 */
std::vector<double>
repeatFor(double seconds, const std::function<double()> &round)
{
    std::vector<double> times, walls;
    const double start = clockS();
    do {
        const double t0 = clockS();
        times.push_back(round());
        walls.push_back(clockS() - t0);
    } while (times.size() < kMinRounds ||
             clockS() - start + median(walls) <= seconds);
    return times;
}

/**
 * wall_s: the fastest round. The host is shared, and other tenants'
 * load only ever slows a round, so the fastest of many rounds tracks
 * the work itself (NOTES.md). Every run makes at least kMinRounds
 * rounds, so the fastest has at least ten samples beyond it.
 */
double
fastest(const std::vector<double> &times)
{
    return *std::min_element(times.begin(), times.end());
}

/** Call @p setup until the calls have taken @p budget_s, at least
 *  once; append each call's wall time in seconds to @p times. */
void
timeSetups(double budget_s, const std::function<void()> &setup,
           std::vector<double> &times)
{
    double spent = 0.0;
    do {
        times.push_back(timeS(setup));
        spent += times.back();
    } while (spent < budget_s);
}

double
peakRssMb()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Share of LLC accesses that evicted a valid line, in %: how often
 *  the replacement policy picked a victim. */
double
evictPct(uint64_t evictions, uint64_t accesses)
{
    return accesses ? 100.0 * static_cast<double>(evictions) /
                          static_cast<double>(accesses)
                    : 0.0;
}

std::string
evictionNote(uint64_t evictions, uint64_t accesses)
{
    return util::format("LLC accesses that evict (simulated): {:.2f}% of "
                        "{}",
                        evictPct(evictions, accesses), accesses);
}

/** setup_s, the median set-up, and its sample count as a note. */
void
addSetup(Report &rep, const std::vector<double> &times)
{
    rep.add("setup_s", median(times), "host");
    rep.notes.push_back(util::format("set-up: {} samples, median {:.6f} s",
                                     times.size(), median(times)));
}

std::string
roundsNote(const char *what, const std::vector<double> &times)
{
    const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
    return util::format("{}: {} rounds, median {:.4f} s, min {:.4f} s, "
                        "max {:.4f} s",
                        what, times.size(), median(times), *lo, *hi);
}

// ---- Shared operations ---------------------------------------------

std::vector<trace::LlcTrace>
captureStreams(const std::vector<std::string> &names,
               const sim::SimParams &params)
{
    std::vector<trace::LlcTrace> streams;
    for (const auto &w : names)
        streams.push_back(sim::captureLlcTrace(w, params));
    return streams;
}

/** One set-up: capture @p names' streams, timed into @p times. The
 *  first capture is kept in @p streams; every later one must equal
 *  it. */
void
setUpStreams(const std::vector<std::string> &names,
             const sim::SimParams &params,
             std::vector<trace::LlcTrace> &streams,
             std::vector<double> &times, Report &rep)
{
    std::vector<trace::LlcTrace> captured;
    times.push_back(
        timeS([&] { captured = captureStreams(names, params); }));
    if (streams.empty()) {
        streams = std::move(captured);
        return;
    }
    for (size_t i = 0; i < names.size(); ++i) {
        rep.op(captured[i].accesses() == streams[i].accesses(),
               "capture of " + names[i] + " differs between set-ups");
    }
}

struct ReplayCount
{
    uint64_t demand_hits = 0;
    uint64_t demand_accesses = 0;
    uint64_t accesses = 0;
    uint64_t evictions = 0;
    /** Valid LLC lines when timing started. */
    uint64_t warm_lines = 0;

    bool
    operator==(const ReplayCount &o) const
    {
        return demand_hits == o.demand_hits &&
               demand_accesses == o.demand_accesses &&
               accesses == o.accesses && evictions == o.evictions &&
               warm_lines == o.warm_lines;
    }
};

/** System's LLC geometry, which the replays use. */
cache::CacheGeometry
llcGeometry()
{
    const sim::SystemConfig cfg;
    cache::CacheGeometry geom;
    geom.name = "LLC";
    geom.size_bytes = cfg.llc_size_per_core;
    geom.ways = cfg.llc_ways;
    geom.latency = cfg.llc_latency;
    geom.mshrs = 64;
    return geom;
}

/** Accesses at the head of @p stream that fill the LLC untimed. */
size_t
replayWarmAccesses(const trace::LlcTrace &stream)
{
    return static_cast<size_t>(kReplayWarmShare *
                               static_cast<double>(stream.size()));
}

/**
 * Replay @p stream through a standalone LLC (System's geometry) over
 * DRAM. The first kReplayWarmShare of the stream fills the LLC and is
 * neither timed nor counted; the rest is, so most of its misses make
 * the policy pick a victim. Adds the timed part's seconds to
 * @p timed_s.
 */
ReplayCount
replayStream(const trace::LlcTrace &stream, const std::string &policy,
             uint64_t seed, double &timed_s)
{
    mem::Dram dram(sim::SystemConfig{}.dram);
    cache::Cache llc(llcGeometry(), core::makePolicy(policy, seed), &dram);
    uint64_t now = 0;
    const auto issue = [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            const trace::LlcAccess &a = stream[i];
            cache::MemRequest req;
            req.address = a.address;
            req.pc = a.pc;
            req.type = a.type;
            req.cpu = a.cpu;
            llc.access(req, now);
            now += kReplayIssueGap;
        }
    };
    const size_t warm = replayWarmAccesses(stream);
    issue(0, warm);
    llc.resetStats();
    const uint64_t warm_lines = llc.validLines();
    timed_s += timeS([&] { issue(warm, stream.size()); });
    return {llc.demandHits(), llc.demandAccesses(),
            allAccesses(llc.statSet()), llc.statSet().value("evictions"),
            warm_lines};
}

/** Production policy vs reference model on a stream prefix;
 *  @return the mismatch, empty when they agree. */
std::string
crossCheck(const trace::LlcTrace &stream, const std::string &policy,
           uint64_t seed)
{
    verify::DiffSpec spec;
    spec.sets = kCrossCheckSets;
    spec.ways = 16;
    spec.policy = policy;
    spec.seed = seed;
    const size_t n = std::min(kCrossCheckPrefix, stream.size());
    const std::vector<trace::LlcAccess> prefix(
        stream.begin(), stream.begin() + static_cast<long>(n));
    const auto mismatch = verify::replayCompare(spec, prefix);
    return mismatch ? mismatch->detail : std::string();
}

/** Outcome of the offline flow on one stream. */
struct OfflineOutcome
{
    ml::OfflineStats lru, belady, rlr, agent;

    bool
    sameAs(const OfflineOutcome &o) const
    {
        auto same = [](const ml::OfflineStats &a,
                       const ml::OfflineStats &b) {
            return a.accesses == b.accesses && a.hits == b.hits &&
                   a.demand_hits == b.demand_hits;
        };
        return same(lru, o.lru) && same(belady, o.belady) &&
               same(rlr, o.rlr) && same(agent, o.agent);
    }
};

/** Belady bounds LRU and the trained agent (demand hit rate, as
 *  fig1_hitrate reports them). */
bool
beladyBounds(const ml::OfflineStats &belady, const ml::OfflineStats &lru,
             const ml::OfflineStats &agent)
{
    return belady.demandHitRate() >= lru.demandHitRate() &&
           belady.demandHitRate() >= agent.demandHitRate();
}

OfflineOutcome
offlineFlow(const trace::LlcTrace &stream, uint64_t seed)
{
    ml::OfflineSimulator osim(ml::OfflineConfig{}, &stream);
    OfflineOutcome out;
    policies::LruPolicy lru;
    out.lru = osim.runPolicy(lru);
    policies::BeladyPolicy belady(osim.oracle());
    out.belady = osim.runPolicy(belady);
    const auto rlr = core::makePolicy("RLR", seed);
    out.rlr = osim.runPolicy(*rlr);
    ml::AgentConfig cfg;
    cfg.seed = seed;
    out.agent = ml::trainAgent(osim, cfg, kOfflineEpochs).eval;
    return out;
}

double
pct(double num, double den)
{
    return den > 0.0 ? 100.0 * num / den : 0.0;
}

/** Position of @p name in @p policies (cells and replays are
 *  ordered workload-major, policy-minor). */
size_t
policyIndex(const std::vector<std::string> &policies,
            const std::string &name)
{
    const auto it = std::find(policies.begin(), policies.end(), name);
    if (it == policies.end())
        throw std::logic_error("hostbench: no " + name + " in policy set");
    return static_cast<size_t>(it - policies.begin());
}

/** RLR against LRU over spec_sweep cells, both in %. */
struct RlrVsLru
{
    /** Geomean of RLR's IPC over LRU's (the fig10 headline). */
    double ipc_pct = 0.0;
    /** RLR's summed LLC demand hits over LRU's. */
    double hits_pct = 0.0;
};

RlrVsLru
rlrVsLru(const std::vector<CellOutcome> &cells)
{
    const size_t np = kSpecPolicies.size();
    const size_t lru = policyIndex(kSpecPolicies, "LRU");
    const size_t rlr = policyIndex(kSpecPolicies, "RLR");
    double lru_hits = 0, rlr_hits = 0, log_ipc = 0;
    for (size_t w = 0; w < kSpecWorkloads.size(); ++w) {
        const CellOutcome &l = cells[w * np + lru];
        const CellOutcome &r = cells[w * np + rlr];
        lru_hits += static_cast<double>(l.llc_demand_hits);
        rlr_hits += static_cast<double>(r.llc_demand_hits);
        log_ipc += std::log(r.ipc / l.ipc);
    }
    return {100.0 * std::exp(log_ipc / kSpecWorkloads.size()),
            pct(rlr_hits, lru_hits)};
}

// ---- End-to-end workloads ------------------------------------------

void
specSweep(const RunConfig &cfg, Report &rep)
{
    const sim::SimParams params =
        makeParams(kSpecWarmup, kSpecInstructions, cfg.seed);

    sim::SweepOptions opts;
    opts.threads = 1;
    // Set-up: resolve every profile and build the sweep. It takes
    // tens of microseconds, and the host's speed changes within a
    // run, so every round starts with a batch of set-ups: the set-up
    // samples span the run as the rounds do.
    std::unique_ptr<sim::SweepRunner> runner;
    std::vector<double> setup_times;
    const auto setUp = [&] {
        for (const auto &w : kSpecWorkloads)
            trace::findWorkload(w);
        runner = std::make_unique<sim::SweepRunner>(params, opts);
    };

    std::vector<CellOutcome> reference;
    const auto times = repeatFor(cfg.seconds, [&] {
        timeSetups(kSpecSetupBudgetS, setUp, setup_times);
        std::vector<sim::SweepCell> cells;
        const double round_s = timeS(
            [&] { cells = runner->run(kSpecWorkloads, kSpecPolicies); });
        const bool first = reference.empty();
        for (size_t i = 0; i < cells.size(); ++i) {
            const sim::SweepCell &c = cells[i];
            const CellOutcome o = outcomeOf(c.result);
            if (first)
                reference.push_back(o);
            rep.op(c.ok() && sameOutcome(o, reference[i]),
                   "cell " + c.workload + "/" + c.policy +
                       (c.ok() ? " differs between rounds"
                               : " failed: " + c.error));
        }
        return round_s;
    });

    const RlrVsLru vs = rlrVsLru(reference);
    rep.add("wall_s", fastest(times), "host");
    addSetup(rep, setup_times);
    rep.add("rlr_hit_vs_lru_pct", vs.hits_pct, "simulated");
    rep.notes.push_back(roundsNote("sweep", times));
    uint64_t evictions = 0, accesses = 0;
    for (const CellOutcome &o : reference) {
        evictions += o.llc_evictions;
        accesses += o.llc_accesses;
    }
    rep.notes.push_back(evictionNote(evictions, accesses));
    rep.notes.push_back(util::format(
        "fig10 headline (simulated): RLR geomean IPC = {:.4f}% of "
        "LRU's over {} workloads",
        vs.ipc_pct, kSpecWorkloads.size()));
}

void
llcReplay(const RunConfig &cfg, Report &rep)
{
    const auto names = trainingNames();
    const sim::SimParams params =
        makeParams(kReplayWarmup, kReplayInstructions, cfg.seed);
    std::vector<trace::LlcTrace> streams;
    std::vector<double> setup_times;

    const auto &policies = replayPolicies();
    std::vector<ReplayCount> reference;
    const auto times = repeatFor(cfg.seconds, [&] {
        setUpStreams(names, params, streams, setup_times, rep);
        const bool first = reference.empty();
        double round_s = 0.0;
        size_t k = 0;
        for (size_t s = 0; s < streams.size(); ++s) {
            for (const auto &p : policies) {
                const ReplayCount rc =
                    replayStream(streams[s], p, cfg.seed, round_s);
                if (first)
                    reference.push_back(rc);
                rep.op(rc == reference[k++],
                       "replay " + names[s] + "/" + p +
                           " differs between rounds");
            }
        }
        return round_s;
    });

    // Outside the timed region: production policies against the
    // independent reference models on every stream.
    for (size_t s = 0; s < streams.size(); ++s) {
        for (const auto &p : kCrossCheckPolicies) {
            const std::string mismatch =
                crossCheck(streams[s], p, cfg.seed);
            rep.op(mismatch.empty(), "cross-check " + names[s] + "/" +
                                         p + ": " + mismatch);
        }
    }

    const size_t lru = policyIndex(policies, "LRU");
    const size_t rlr = policyIndex(policies, "RLR");
    double lru_hits = 0, rlr_hits = 0;
    for (size_t s = 0; s < streams.size(); ++s) {
        lru_hits += static_cast<double>(
            reference[s * policies.size() + lru].demand_hits);
        rlr_hits += static_cast<double>(
            reference[s * policies.size() + rlr].demand_hits);
    }
    rep.add("wall_s", fastest(times), "host");
    addSetup(rep, setup_times);
    rep.add("rlr_hit_vs_lru_pct", pct(rlr_hits, lru_hits), "simulated");
    rep.notes.push_back(roundsNote("replay", times));
    uint64_t evictions = 0, all = 0;
    uint64_t least_warm = std::numeric_limits<uint64_t>::max();
    for (const ReplayCount &rc : reference) {
        evictions += rc.evictions;
        all += rc.accesses;
        least_warm = std::min(least_warm, rc.warm_lines);
    }
    const cache::CacheGeometry geom = llcGeometry();
    rep.notes.push_back(evictionNote(evictions, all));
    rep.notes.push_back(util::format(
        "LLC lines valid when timing starts (simulated): at least "
        "{:.2f}% in every replay",
        pct(static_cast<double>(least_warm),
            static_cast<double>(geom.numSets()) * geom.ways)));
    rep.op(evictPct(evictions, all) >= kMinReplayEvictPct,
           util::format("timed replays evict on {:.1f}% of accesses, "
                        "under {}%",
                        evictPct(evictions, all), kMinReplayEvictPct));
    rep.notes.push_back(util::format(
        "{} streams, {} timed LLC accesses, {} policies per round",
        streams.size(), all / policies.size(), policies.size()));
}

void
offlineRl(const RunConfig &cfg, Report &rep)
{
    const sim::SimParams params =
        makeParams(kOfflineWarmup, kOfflineInstructions, cfg.seed);
    std::vector<trace::LlcTrace> streams;
    std::vector<double> setup_times;

    std::vector<OfflineOutcome> reference;
    const auto times = repeatFor(cfg.seconds, [&] {
        setUpStreams(kOfflineWorkloads, params, streams, setup_times, rep);
        const bool first = reference.empty();
        double round_s = 0.0;
        for (size_t s = 0; s < streams.size(); ++s) {
            OfflineOutcome o;
            round_s +=
                timeS([&] { o = offlineFlow(streams[s], cfg.seed); });
            if (first)
                reference.push_back(o);
            const std::string &w = kOfflineWorkloads[s];
            if (!rep.op(beladyBounds(o.belady, o.lru, o.agent),
                        "offline " + w +
                            ": Belady below LRU or the agent"))
                continue;
            rep.op(o.sameAs(reference[s]),
                   "offline " + w + " differs between rounds");
        }
        return round_s;
    });

    double lru_hits = 0, rlr_hits = 0;
    for (const auto &o : reference) {
        lru_hits += static_cast<double>(o.lru.demand_hits);
        rlr_hits += static_cast<double>(o.rlr.demand_hits);
    }
    rep.add("wall_s", fastest(times), "host");
    addSetup(rep, setup_times);
    rep.add("rlr_hit_vs_lru_pct", pct(rlr_hits, lru_hits), "simulated");
    rep.notes.push_back(roundsNote("offline flow", times));
    for (size_t s = 0; s < reference.size(); ++s) {
        const OfflineOutcome &o = reference[s];
        rep.notes.push_back(util::format(
            "{} (simulated demand hit rate): LRU {:.4f} Belady {:.4f} "
            "RLR {:.4f} agent {:.4f}; LRU evicts on {:.2f}% of {} "
            "accesses",
            kOfflineWorkloads[s], o.lru.demandHitRate(),
            o.belady.demandHitRate(), o.rlr.demandHitRate(),
            o.agent.demandHitRate(),
            pct(static_cast<double>(o.lru.evictions),
                static_cast<double>(o.lru.accesses)),
            o.lru.accesses));
    }
}

// ---- Traced run -----------------------------------------------------

/** Per-layer samples, one per repetition of their part. */
class Samples
{
  public:
    void
    add(const std::string &name, double value, const char *kind)
    {
        auto &s = samples_[name];
        s.kind = kind;
        s.values.push_back(value);
    }

    /** Median of @p name's samples; 0 when there are none. */
    double
    value(const std::string &name) const
    {
        const auto it = samples_.find(name);
        return it == samples_.end() ? 0.0 : median(it->second.values);
    }

    void
    report(Report &rep) const
    {
        for (const auto &[name, s] : samples_)
            rep.add(name, median(s.values), s.kind);
    }

  private:
    struct Series
    {
        std::string kind;
        std::vector<double> values;
    };
    std::map<std::string, Series> samples_;
};

double
perUnit(double total, double units)
{
    return units > 0.0 ? total / units : 0.0;
}

/** Layers of a traced cell and the metrics they report. */
struct LayerName
{
    Layer layer;
    const char *ns;
    const char *calls; // null: per-instruction layers
};
const LayerName kCellLayers[] = {
    {Layer::Trace, "trace.next_ns", nullptr},
    {Layer::Core, "cpu.core_ns", nullptr},
    {Layer::L1, "cache.l1_ns", "cache.l1_calls_per_kinstr"},
    {Layer::L2, "cache.l2_ns", "cache.l2_calls_per_kinstr"},
    {Layer::Llc, "cache.llc_ns", "cache.llc_calls_per_kinstr"},
    {Layer::Prefetch, "prefetch.ns", "prefetch.calls_per_kinstr"},
    {Layer::Dram, "mem.dram_ns", "mem.dram_calls_per_kinstr"},
};

/** One spec_sweep cell run untraced and traced. */
struct TracedCell
{
    Tracer tracer;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    /** Timer cost calibrated just before the traced run. */
    TimerCost cost;
};

/** Calibrated time of a traced cell, in ns: its layers' self times
 *  plus `sim`, the time outside the core's spans (hierarchy
 *  construction, stat resets and the closing registry snapshot). */
double
accountedNs(const TracedCell &c, const TimerCost &cost)
{
    double ns = 1e9 * c.traced_s -
                cost.ns(static_cast<double>(c.tracer.topLevelTicks()) +
                        static_cast<double>(c.tracer.topLevelCalls()) *
                            cost.outer);
    for (const LayerName &l : kCellLayers)
        ns += calibratedSelfNs(c.tracer, l.layer, cost);
    return ns;
}

/** Front end: every spec_sweep cell untraced (runSingleCore), then
 *  rebuilt with timed layers, then the production sweep. */
void
frontEndPart(const RunConfig &cfg, double ticks_per_ns, Report &rep,
             Samples &out)
{
    const sim::SimParams params =
        makeParams(kSpecWarmup, kSpecInstructions, cfg.seed);
    std::vector<TracedCell> traced_cells;
    double executed = 0.0;
    std::vector<double> setup_ms;
    std::vector<CellOutcome> production;
    for (const auto &w : kSpecWorkloads) {
        for (const auto &p : kSpecPolicies) {
            sim::SimParams cp = params;
            cp.llc_policy = p;
            cp.seed = sim::SweepRunner::cellSeed(cfg.seed, w);
            TracedCell &c = traced_cells.emplace_back();

            c.untraced_s = timeS([&] {
                production.push_back(
                    outcomeOf(sim::runSingleCore(w, cp)));
            });
            // Calibrated next to every cell, so the timer cost
            // follows the host's load through the part.
            c.cost = calibrateTimer(ticks_per_ns);
            CellOutcome traced;
            c.traced_s = timeS(
                [&] { traced = runTracedCell(w, cp, c.tracer); });
            executed += static_cast<double>(traced.executed_instructions);
            rep.op(sameOutcome(traced, production.back()),
                   "traced cell " + w + "/" + p +
                       " differs from runSingleCore");

            sim::SystemConfig sc;
            sc.llc_policy = p;
            sc.policy_seed = cp.seed;
            setup_ms.push_back(1e3 * timeS([&] {
                                   auto system =
                                       std::make_unique<sim::System>(sc);
                               }));
        }
    }

    sim::SweepOptions opts;
    opts.threads = 1;
    sim::SweepRunner runner(params, opts);
    std::vector<sim::SweepCell> cells;
    const double sweep_s = timeS(
        [&] { cells = runner.run(kSpecWorkloads, kSpecPolicies); });
    double cells_s = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
        cells_s += cells[i].wall_seconds;
        rep.op(cells[i].ok() &&
                   sameOutcome(outcomeOf(cells[i].result),
                               production[i]),
               "sweep cell " + cells[i].workload + "/" +
                   cells[i].policy + " differs from runSingleCore");
    }

    std::vector<TimerCost> costs;
    std::vector<double> residuals;
    double untraced_s = 0.0, traced_s = 0.0;
    for (const TracedCell &c : traced_cells) {
        costs.push_back(c.cost);
        residuals.push_back(
            pct(accountedNs(c, c.cost) - 1e9 * c.untraced_s,
                1e9 * c.untraced_s));
        untraced_s += c.untraced_s;
        traced_s += c.traced_s;
    }
    const TimerCost cost = medianCost(costs);
    for (const LayerName &l : kCellLayers) {
        double self_ns = 0.0, calls = 0.0;
        for (const TracedCell &c : traced_cells) {
            self_ns += calibratedSelfNs(c.tracer, l.layer, cost);
            calls += static_cast<double>(c.tracer.totals(l.layer).calls);
        }
        if (l.calls) {
            out.add(l.ns, perUnit(self_ns, calls), "host");
            out.add(l.calls, perUnit(1e3 * calls, executed), "host");
        } else {
            out.add(l.ns, perUnit(self_ns, executed), "host");
        }
    }

    out.add("sim.cell_setup_ms", median(setup_ms), "host");
    out.add("sim.sweep_overhead_s", sweep_s - cells_s, "host");
    out.add("sim.rlr_ipc_vs_lru_pct", rlrVsLru(production).ipc_pct,
            "simulated");
    out.add("obs.timer_ns", cost.totalNs(), "host");
    out.add("obs.trace_overhead", traced_s / untraced_s, "host");
    // Per cell, so a burst of host load during one cell's traced or
    // untraced run moves one sample, not the whole part's sum.
    const double residual = median(residuals);
    out.add("obs.residual_pct", std::abs(residual), "host");
    rep.notes.push_back(util::format(
        "traced cells: median signed residual {:.2f}%", residual));
    uint64_t evictions = 0, accesses = 0;
    for (const CellOutcome &o : production) {
        evictions += o.llc_evictions;
        accesses += o.llc_accesses;
    }
    out.add("cache.llc_evict_pct", evictPct(evictions, accesses),
            "simulated");
}

/** LLC replay: every (stream, policy) replay, timed per call. */
void
replayPart(const RunConfig &cfg,
           const std::vector<trace::LlcTrace> &streams, Report &rep,
           Samples &out)
{
    uint64_t evictions = 0, accesses = 0;
    for (const auto &p : replayPolicies()) {
        ReplayCount total;
        double timed_s = 0.0;
        for (const auto &stream : streams) {
            const ReplayCount rc =
                replayStream(stream, p, cfg.seed, timed_s);
            total.demand_hits += rc.demand_hits;
            total.demand_accesses += rc.demand_accesses;
            total.accesses += rc.accesses;
            total.evictions += rc.evictions;
        }
        rep.op(total.demand_accesses > 0,
               "replay " + p + ": no demand accesses");
        const std::string name = metricSafe(p);
        out.add("cache.llc_replay_ns." + name,
                perUnit(1e9 * timed_s,
                        static_cast<double>(total.accesses)),
                "host");
        out.add("cache.llc_hit_rate." + name,
                pct(static_cast<double>(total.demand_hits),
                    static_cast<double>(total.demand_accesses)),
                "simulated");
        evictions += total.evictions;
        accesses += total.accesses;
    }
    out.add("cache.llc_replay_evict_pct", evictPct(evictions, accesses),
            "simulated");
}

/** States built by the offline simulator's feature extractor from
 *  a stream's first accesses (for timing the agent alone). */
std::vector<std::vector<float>>
extractorStates(ml::OfflineSimulator &osim,
                const trace::LlcTrace &stream)
{
    const uint32_t ways = osim.ways();
    std::vector<std::vector<float>> states;
    for (size_t i = 0;
         i < kIsolatedStates && i + 1 + ways < stream.size(); ++i) {
        ml::AccessFeatures a;
        a.address = stream[i].address;
        a.preuse = static_cast<uint32_t>(i % 64);
        a.type = stream[i].type;
        a.set = static_cast<uint32_t>(i % osim.numSets());
        ml::SetFeatures s;
        s.accesses = static_cast<uint32_t>(i);
        s.accesses_since_miss = static_cast<uint32_t>(i % 16);
        std::vector<ml::LineFeatures> lines(ways);
        for (uint32_t w = 0; w < ways; ++w) {
            const trace::LlcAccess &l = stream[i + 1 + w];
            lines[w].valid = true;
            lines[w].address = l.address;
            lines[w].last_type = l.type;
            lines[w].preuse = 3 * w;
            lines[w].age_insert = w + static_cast<uint32_t>(i % 7);
            lines[w].age_last = w;
            lines[w].hits = w % 3;
            lines[w].recency = w;
        }
        states.push_back(osim.extractor().extract(a, s, lines));
    }
    return states;
}

/** Offline ML: trainAgent's passes rebuilt and timed one by one,
 *  plus the agent's act / train step timed alone. */
void
mlPart(const RunConfig &cfg, const std::vector<trace::LlcTrace> &streams,
       Report &rep, Samples &out)
{
    double lru_ns = 0, belady_ns = 0, train_ns = 0, eval_ns = 0;
    double accesses = 0, decisions = 0;
    double eval_hits = 0, eval_demand = 0;
    double act_ns = 0, step_ns = 0;
    for (size_t s = 0; s < streams.size(); ++s) {
        const trace::LlcTrace &stream = streams[s];
        ml::OfflineSimulator osim(ml::OfflineConfig{}, &stream);
        accesses += static_cast<double>(stream.size());

        uint64_t t0 = clockNs();
        policies::LruPolicy lru_policy;
        const ml::OfflineStats lru = osim.runPolicy(lru_policy);
        lru_ns += static_cast<double>(clockNs() - t0);

        t0 = clockNs();
        policies::BeladyPolicy belady_policy(osim.oracle());
        const ml::OfflineStats belady = osim.runPolicy(belady_policy);
        belady_ns += static_cast<double>(clockNs() - t0);

        // What ml::trainAgent does, pass by pass.
        ml::AgentConfig acfg;
        acfg.seed = cfg.seed;
        acfg.mlp.inputs = osim.extractor().stateSize();
        acfg.mlp.outputs = osim.ways();
        ml::DqnAgent agent(acfg);
        for (unsigned e = 0; e < kOfflineEpochs; ++e) {
            t0 = clockNs();
            osim.runAgent(agent, true);
            train_ns += static_cast<double>(clockNs() - t0);
        }
        t0 = clockNs();
        const ml::OfflineStats eval = osim.runAgent(agent, false);
        eval_ns += static_cast<double>(clockNs() - t0);
        decisions += static_cast<double>(agent.decisions());
        eval_hits += static_cast<double>(eval.demand_hits);
        eval_demand += static_cast<double>(eval.demand_accesses);

        const std::string &w = kOfflineWorkloads[s];
        rep.op(beladyBounds(belady, lru, eval),
               "traced offline " + w + ": Belady below LRU or the agent");
        if (s != 0)
            continue;
        const auto states = extractorStates(osim, stream);
        const bool trained = agent.decisions() > 0 && !states.empty();
        rep.op(trained, "offline " + w + ": agent made no decisions");
        if (!trained)
            continue;
        uint32_t max_way = 0;
        t0 = clockNs();
        for (int r = 0; r < kActRepeats; ++r)
            for (const auto &st : states)
                max_way = std::max(max_way, agent.actGreedy(st));
        act_ns = static_cast<double>(clockNs() - t0) /
                 static_cast<double>(kActRepeats * states.size());
        t0 = clockNs();
        for (int k = 0; k < kTrainSteps; ++k)
            agent.trainStep();
        step_ns = static_cast<double>(clockNs() - t0) / kTrainSteps;
        rep.op(max_way < osim.ways(),
               "actGreedy returned an out-of-range way");
    }
    out.add("ml.replay_lru_ns", perUnit(lru_ns, accesses), "host");
    out.add("ml.replay_belady_ns", perUnit(belady_ns, accesses), "host");
    out.add("ml.train_ns", perUnit(train_ns, kOfflineEpochs * accesses),
            "host");
    out.add("ml.eval_ns", perUnit(eval_ns, accesses), "host");
    out.add("ml.decisions", decisions, "host");
    out.add("ml.act_ns", act_ns, "host");
    out.add("ml.train_step_ns", step_ns, "host");
    out.add("ml.rl_hit_rate", pct(eval_hits, eval_demand), "simulated");
}

} // namespace

// ---- Public entry points ---------------------------------------------

void
Report::add(const std::string &name, double value,
            const std::string &kind)
{
    metrics.push_back({name, value, kind});
}

bool
Report::op(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (errors.size() < 20)
            errors.push_back(what);
    }
    return ok;
}

std::vector<std::string>
workloadNames()
{
    return {"spec_sweep", "llc_replay", "offline_rl"};
}

const std::vector<std::string> &
replayPolicies()
{
    static const std::vector<std::string> policies = {
        "LRU", "SRRIP", "DRRIP", "SHiP", "SHiP++", "Hawkeye", "RLR"};
    return policies;
}

std::string
metricSafe(const std::string &name)
{
    std::string out;
    for (const char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '.' || c == '-')
            out += c;
        else if (c == '+')
            out += 'p';
        else
            out += '_';
    }
    return out;
}

Report
runEndToEnd(const RunConfig &cfg)
{
    Report rep;
    if (cfg.workload == "spec_sweep")
        specSweep(cfg, rep);
    else if (cfg.workload == "llc_replay")
        llcReplay(cfg, rep);
    else if (cfg.workload == "offline_rl")
        offlineRl(cfg, rep);
    else
        throw std::invalid_argument("unknown workload " + cfg.workload);
    rep.add("peak_rss_mb", peakRssMb(), "host");
    return rep;
}

Report
runTraced(const RunConfig &cfg)
{
    const auto names = workloadNames();
    if (std::find(names.begin(), names.end(), cfg.workload) ==
        names.end())
        throw std::invalid_argument("unknown workload " + cfg.workload);

    Report rep;
    // Set-up, untimed: the timer's tick rate and the captured
    // streams the replay and ML parts consume.
    const double ticks_per_ns = measureTicksPerNs();
    const auto replay_streams = captureStreams(
        trainingNames(),
        makeParams(kReplayWarmup, kReplayInstructions, cfg.seed));
    const auto offline_streams = captureStreams(
        kOfflineWorkloads,
        makeParams(kOfflineWarmup, kOfflineInstructions, cfg.seed));

    Samples samples;
    const std::map<std::string, std::function<void()>> parts = {
        {"spec_sweep",
         [&] { frontEndPart(cfg, ticks_per_ns, rep, samples); }},
        {"llc_replay",
         [&] { replayPart(cfg, replay_streams, rep, samples); }},
        {"offline_rl",
         [&] { mlPart(cfg, offline_streams, rep, samples); }},
    };
    const double start = clockS();
    double own_s = 0.0;
    for (const auto &name : names) {
        const double t0 = clockS();
        parts.at(name)();
        if (name == cfg.workload)
            own_s = clockS() - t0;
    }
    int repetitions = 1;
    while (clockS() - start + own_s <= cfg.seconds) {
        const double t0 = clockS();
        parts.at(cfg.workload)();
        own_s = clockS() - t0;
        ++repetitions;
    }
    samples.report(rep);
    const double residual = samples.value("obs.residual_pct");
    rep.op(residual < kMaxResidualPct,
           util::format("calibrated layer total is {:.1f}% off the "
                        "untraced time (limit {}%)",
                        residual, kMaxResidualPct));
    rep.notes.push_back(util::format(
        "traced run: every part once, then {} part repeated; {} "
        "samples of its metrics",
        cfg.workload, repetitions));
    return rep;
}

} // namespace hostbench

/**
 * @file
 * Host-time tracing for the benchmark: a self-time span stack, the
 * timing decorators that wrap the simulator's public layer
 * interfaces (InstructionSource, MemoryLevel, Prefetcher), the
 * timer calibration, and a single-core cell rebuilt from those
 * decorated parts so every call between layers is timed.
 *
 * Nothing here changes what is simulated: the decorators only
 * forward, and the rebuilt cell must reproduce
 * sim::runSingleCore's IPC and LLC counts exactly (checked by the
 * traced run and the self-test).
 */

#ifndef HOSTBENCH_LAYERS_HH
#define HOSTBENCH_LAYERS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "cache/memory_interface.hh"
#include "cache/prefetcher.hh"
#include "stats/stats.hh"
#include "sim/experiment.hh"
#include "trace/record.hh"

namespace hostbench
{

/** Monotonic host clock in nanoseconds. */
inline uint64_t
clockNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Span timestamp: the time-stamp counter on x86-64 (a few ns to
 * read, so spans perturb the traced work less), the steady clock's
 * ns elsewhere. TimerCost::ticks_per_ns converts.
 */
inline uint64_t
spanTicks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return clockNs();
#endif
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Monotonic host clock in seconds. */
inline double
clockS()
{
    return static_cast<double>(clockNs()) * 1e-9;
}

/** The simulator layers a traced single-core cell is split into. */
enum class Layer : uint8_t
{
    Trace,    ///< instruction generation (InstructionSource::next)
    Core,     ///< O3Core::run, minus the calls below it
    L1,       ///< L1I + L1D accesses
    L2,       ///< L2 accesses
    Llc,      ///< LLC accesses (replacement policy included)
    Prefetch, ///< Prefetcher::observe at L1D and L2
    Dram,     ///< mem::Dram accesses
};
inline constexpr size_t kNumLayers = 7;

/**
 * Stack of open spans. A span's self time is its duration minus
 * the durations of the spans opened directly inside it. Times are
 * in spanTicks() units.
 */
class Tracer
{
  public:
    struct Totals
    {
        uint64_t calls = 0;
        /** Duration minus direct children, uncalibrated. */
        uint64_t self_ticks = 0;
        /** Spans opened directly inside this layer's spans. */
        uint64_t child_calls = 0;
    };

    const Totals &
    totals(Layer layer) const
    {
        return totals_[static_cast<size_t>(layer)];
    }
    /** Summed duration of spans opened with no span open. */
    uint64_t topLevelTicks() const { return top_ticks_; }
    uint64_t topLevelCalls() const { return top_calls_; }

  private:
    friend class Span;
    struct Frame
    {
        uint64_t child_ticks = 0;
        uint64_t child_calls = 0;
    };
    /** Deeper than any call chain of the hierarchy (core, L1,
     *  prefetcher or L2, LLC, DRAM). */
    static constexpr size_t kMaxDepth = 16;

    std::array<Frame, kMaxDepth> stack_{};
    size_t depth_ = 0;
    std::array<Totals, kNumLayers> totals_{};
    uint64_t top_ticks_ = 0;
    uint64_t top_calls_ = 0;
};

/** RAII span: times its scope and charges it to one layer. */
class Span
{
  public:
    Span(Tracer &tracer, Layer layer)
        : tracer_(tracer), layer_(layer)
    {
        if (tracer_.depth_ == Tracer::kMaxDepth)
            throw std::logic_error("hostbench: spans nested too deep");
        tracer_.stack_[tracer_.depth_++] = Tracer::Frame{};
        start_ = spanTicks();
    }

    ~Span()
    {
        const uint64_t dt = spanTicks() - start_;
        const Tracer::Frame frame = tracer_.stack_[--tracer_.depth_];
        Tracer::Totals &t =
            tracer_.totals_[static_cast<size_t>(layer_)];
        ++t.calls;
        t.self_ticks += dt - frame.child_ticks;
        t.child_calls += frame.child_calls;
        if (tracer_.depth_ == 0) {
            tracer_.top_ticks_ += dt;
            ++tracer_.top_calls_;
        } else {
            Tracer::Frame &parent = tracer_.stack_[tracer_.depth_ - 1];
            parent.child_ticks += dt;
            ++parent.child_calls;
        }
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    Layer layer_;
    uint64_t start_ = 0;
};

/**
 * Cost of one timed call (a decorator's span and its extra virtual
 * call), split where it lands: `inner` shows up in the span's own
 * duration, `outer` in the self time of the span that encloses it.
 * Both in spanTicks() units.
 */
struct TimerCost
{
    double inner = 0.0;
    double outer = 0.0;
    double ticks_per_ns = 1.0;

    double ns(double ticks) const { return ticks / ticks_per_ns; }
    double totalNs() const { return ns(inner + outer); }
};

/** spanTicks() per steady-clock ns, over a 20 ms busy wait. */
double measureTicksPerNs();

/** Measure TimerCost (median of several batches of calls through a
 *  TimedLevel over a level that does nothing). */
TimerCost calibrateTimer(double ticks_per_ns);

/** Per-field median of several calibrations. */
TimerCost medianCost(const std::vector<TimerCost> &costs);

/** Self time of @p layer with the timer cost taken out, in ns. */
double calibratedSelfNs(const Tracer &tracer, Layer layer,
                        const TimerCost &cost);

/** Forwards to a MemoryLevel, timing each access as @p layer. */
class TimedLevel : public rlr::cache::MemoryLevel
{
  public:
    TimedLevel(Tracer &tracer, Layer layer,
               rlr::cache::MemoryLevel *inner)
        : tracer_(tracer), layer_(layer), inner_(inner)
    {
    }

    uint64_t
    access(const rlr::cache::MemRequest &req, uint64_t now) override
    {
        Span span(tracer_, layer_);
        return inner_->access(req, now);
    }

    const std::string &name() const override { return inner_->name(); }

  private:
    Tracer &tracer_;
    Layer layer_;
    rlr::cache::MemoryLevel *inner_;
};

/** Forwards to an InstructionSource, timing each next(). */
class TimedSource : public rlr::trace::InstructionSource
{
  public:
    TimedSource(Tracer &tracer,
                std::unique_ptr<rlr::trace::InstructionSource> inner)
        : tracer_(tracer), inner_(std::move(inner))
    {
    }

    bool
    next(rlr::trace::Instruction &out) override
    {
        Span span(tracer_, Layer::Trace);
        return inner_->next(out);
    }

    void reset() override { inner_->reset(); }
    const std::string &name() const override { return inner_->name(); }

  private:
    Tracer &tracer_;
    std::unique_ptr<rlr::trace::InstructionSource> inner_;
};

/** Forwards to a Prefetcher, timing each observe(). */
class TimedPrefetcher : public rlr::cache::Prefetcher
{
  public:
    TimedPrefetcher(Tracer &tracer,
                    std::unique_ptr<rlr::cache::Prefetcher> inner)
        : tracer_(tracer), inner_(std::move(inner))
    {
    }

    void
    bind(const rlr::cache::CacheGeometry &geom) override
    {
        inner_->bind(geom);
    }

    void
    observe(uint64_t pc, uint64_t address, bool hit,
            std::vector<rlr::cache::PrefetchRequest> &out) override
    {
        Span span(tracer_, Layer::Prefetch);
        inner_->observe(pc, address, hit, out);
    }

    std::string name() const override { return inner_->name(); }

    void
    describeStats(rlr::stats::Registry &reg,
                  const std::string &prefix) override
    {
        inner_->describeStats(reg, prefix);
    }

  private:
    Tracer &tracer_;
    std::unique_ptr<rlr::cache::Prefetcher> inner_;
};

/** What a cell produced: the numbers compared with production. */
struct CellOutcome
{
    double ipc = 0.0;
    uint64_t llc_demand_accesses = 0;
    uint64_t llc_demand_hits = 0;
    uint64_t llc_demand_misses = 0;
    /** Every LLC access of the measured part (all types), and how
     *  many of them evicted a valid line. */
    uint64_t llc_accesses = 0;
    uint64_t llc_evictions = 0;
    uint64_t measured_instructions = 0;
    /** Warmup plus measured instructions (traced cells only; not
     *  compared). */
    uint64_t executed_instructions = 0;
};

/**
 * sim::runSingleCore rebuilt from the public classes with every
 * layer boundary timed into @p tracer. @p params.seed is the cell
 * seed (SweepRunner::cellSeed), as runWorkloads receives it.
 */
CellOutcome runTracedCell(const std::string &workload,
                          const rlr::sim::SimParams &params,
                          Tracer &tracer);

/** Accesses of every type counted in a cache's @p stats. */
uint64_t allAccesses(const rlr::stats::StatSet &stats);

/** The same numbers from a production RunResult. */
CellOutcome outcomeOf(const rlr::sim::RunResult &result);

/** @return true when two outcomes match exactly. */
bool sameOutcome(const CellOutcome &a, const CellOutcome &b);

} // namespace hostbench

#endif // HOSTBENCH_LAYERS_HH

#include "sim/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include <unistd.h>

#include "obs/chrome_trace.hh"
#include "obs/heartbeat.hh"
#include "obs/profiler.hh"
#include "obs/resource.hh"
#include "sim/journal.hh"
#include "stats/export.hh"
#include "util/atomic_file.hh"
#include "util/cancel_token.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

#ifndef RLR_GIT_DESCRIBE
#define RLR_GIT_DESCRIBE "unknown"
#endif

namespace rlr::sim
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

int64_t
nowMillis()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** FNV-1a over the label; stable across platforms and runs. */
uint64_t
hashLabel(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** splitmix64 finalizer: decorrelates nearby seeds. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// Shared JSON primitives (stats/export.hh).
using stats::json::escape;
using stats::json::number;

// ---- signal drain: the handler only records the signal; the
// monitor thread drains. The flag is process-global and sticky, so
// Ctrl-C stops the whole bench, not just the current figure.

std::atomic<int> g_signal_caught{0};
std::atomic<bool> g_sweep_interrupted{false};

void
sweepSignalHandler(int signo)
{
    g_signal_caught.store(signo, std::memory_order_relaxed);
    // A second signal kills the process the default way.
    std::signal(signo, SIG_DFL);
}

/** Installs drain handlers for the sweep; restores on scope exit. */
class SignalGuard
{
  public:
    explicit SignalGuard(bool enable) : active_(enable)
    {
        if (!active_)
            return;
        struct sigaction sa = {};
        sa.sa_handler = sweepSignalHandler;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGINT, &sa, &old_int_);
        sigaction(SIGTERM, &sa, &old_term_);
    }
    ~SignalGuard()
    {
        if (!active_)
            return;
        sigaction(SIGINT, &old_int_, nullptr);
        sigaction(SIGTERM, &old_term_, nullptr);
    }
    SignalGuard(const SignalGuard &) = delete;
    SignalGuard &operator=(const SignalGuard &) = delete;

  private:
    bool active_;
    struct sigaction old_int_ = {};
    struct sigaction old_term_ = {};
};

/** Poll period while every remaining cell is leased elsewhere. */
constexpr double kClaimPollS = 0.05;

const char *const kCancelledSignal = "cancelled: signal";

/** A worker thread's watchdog and lease state, monitor-shared. */
struct AttemptSlot
{
    util::CancelToken token;
    /** Deadline in steady-clock millis; -1 = no attempt armed,
     *  -2 = claimed by the monitor, which then cancels. */
    std::atomic<int64_t> deadline_ms{-1};

    // Distributed sweeps: the lease this worker holds (fence 0 =
    // none). The monitor renews it every TTL/3 unless `stalled`
    // (the stall-worker fault lets the lease expire).
    std::atomic<uint64_t> lease_hash{0};
    std::atomic<uint64_t> lease_fence{0};
    std::atomic<uint32_t> lease_attempt{0};
    /** Last renewal in steady-clock millis. */
    std::atomic<int64_t> lease_renew_ms{0};
    std::atomic<bool> stalled{false};
};

/** The sweep.* counters, in SweepRunner::stats() order. */
enum Counter : size_t {
    kCompleted, kResumed, kRetries, kTimeouts, kFailed,
    kCancelled, kReaped, kMerged, kSteals, kFenced, kNumCounters
};
const char *const kCounterNames[kNumCounters] = {
    "completed_cells", "resumed_cells", "retries", "timeouts",
    "failed_cells", "cancelled_cells", "reaped_markers",
    "merged_cells", "lease_steals", "fenced_commits"};

/**
 * Decorrelated jitter (the AWS architecture-blog variant): each
 * wait is uniform in [base, 3 * previous], capped. @p prev is
 * updated in place.
 */
double
decorrelatedJitter(util::Rng &rng, double &prev, double base,
                   double cap)
{
    const double hi = std::max(base, prev * 3.0);
    double wait = base + rng.nextDouble() * (hi - base);
    wait = std::min(wait, std::max(base, cap));
    prev = wait;
    return wait;
}

/** Sleep @p seconds in small slices, bailing on drain. */
void
sleepInterruptible(double seconds, const std::atomic<bool> &draining)
{
    const auto t0 = Clock::now();
    while (secondsSince(t0) < seconds && !draining)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

/** Raise the configured fault before the cell body runs. */
void
injectFault(const FaultAction &fault, uint32_t attempt,
            const util::CancelToken &token)
{
    switch (fault.kind) {
      case FaultKind::None:
      case FaultKind::AbortProcess:   // handled before the loop
      case FaultKind::CorruptJournal: // handled at journal time
      case FaultKind::KillWorker:     // handled at claim time
      case FaultKind::StallWorker:    // handled at claim time
        return;
      case FaultKind::Throw:
        throw std::runtime_error("injected fault: throw");
      case FaultKind::Transient:
        if (attempt <= fault.fail_attempts) {
            throw RetryableError(util::format(
                "injected fault: transient (attempt {} of {})",
                attempt, fault.fail_attempts));
        }
        return;
      case FaultKind::Hang:
        // Block exactly like a wedged simulation would: the only
        // way out is the cooperative cancel token (watchdog
        // timeout or signal drain).
        while (!token.cancelled())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        throw util::CancelledError(token.reason());
    }
}

/** One runCells() call: resume, monitor, one claim-execute-commit
 *  loop per worker thread, finish. Only the claim differs between
 *  local sweeps (an in-memory cursor) and distributed ones (merge
 *  other workers' records, claim through leases). */
class SweepRun
{
  public:
    SweepRun(const SimParams &params, const SweepOptions &opts,
             const SweepRunner::CellFn &cell_fn,
             std::vector<SweepRunner::CellSpec> specs)
        : params_(params), opts_(opts), cell_fn_(cell_fn),
          specs_(std::move(specs)), n_(specs_.size()), seeds_(n_),
          hashes_(n_), cells_(n_), settled_(n_, 0),
          slots_(std::max<size_t>(1, opts.threads)),
          signal_guard_(opts.handle_signals)
    {
        for (size_t i = 0; i < n_; ++i) {
            seeds_[i] = SweepRunner::cellSeed(params_.seed,
                                              specs_[i].workload);
            hashes_[i] = SweepJournal::specHash(specs_[i], seeds_[i]);
            cells_[i] = freshCell(i);
        }
    }
    // Worker and monitor threads hold `this`.
    SweepRun(const SweepRun &) = delete;
    SweepRun &operator=(const SweepRun &) = delete;

    /** Open the journal and resume; set up lease and heartbeat. */
    void
    resume()
    {
        if (opts_.dist.enabled && opts_.journal_dir.empty()) {
            util::fatal("distributed sweep execution needs a "
                        "shared --journal directory");
        }
        if (!opts_.journal_dir.empty()) {
            JournalHeader header;
            header.master_seed = params_.seed;
            header.config_hash = sweepConfigHash(params_, specs_);
            header.build = RLR_GIT_DESCRIBE;
            header.writer = util::format(
                "pid {} worker {}", static_cast<long>(::getpid()),
                opts_.dist.worker_id);
            header.n_cells = n_;
            try {
                journal_ = std::make_unique<SweepJournal>(
                    opts_.journal_dir, header);
            } catch (const std::exception &e) {
                util::fatal("{}", e.what());
            }
            if (params_.llc_events_capacity > 0) {
                util::warn("--journal does not persist LLC event logs; "
                           "resumed cells carry empty events");
            }
            for (size_t i = 0; i < n_; ++i) {
                if (journal_->load(hashes_[i], specs_[i], seeds_[i],
                                   cells_[i])) {
                    cells_[i].resumed = true;
                    settled_[i] = 1;
                    ++counts_[kResumed];
                }
            }
            // Stale in-flight markers are breadcrumbs of attempts
            // a crashed worker never finished.
            const size_t reaped =
                journal_->reapStaleMarkers(opts_.dist.lease_ttl_s);
            counts_[kReaped] = reaped;
            if (reaped > 0) {
                util::warn("reaped {} stale in-flight marker{} in '{}'",
                           reaped, reaped == 1 ? "" : "s",
                           journal_->dir());
            }
        }
        if (opts_.dist.enabled) {
            lease_ = std::make_unique<Lease>(journal_->dir(),
                                             opts_.dist.worker_id,
                                             opts_.dist.lease_ttl_s);
        }
        for (size_t i = 0; i < n_; ++i)
            if (!settled_[i])
                pending_.push_back(i);
        if (!opts_.heartbeat_path.empty()) {
            heartbeat_ = std::make_unique<obs::HeartbeatWriter>(
                opts_.heartbeat_path, opts_.heartbeat_period_s, n_,
                counts_[kResumed]);
        }
    }

    /** Start the monitor thread when anything needs watching. */
    void
    startMonitor()
    {
        // An already-interrupted process drains at once.
        if (opts_.handle_signals && g_signal_caught != 0) {
            draining_ = true;
            g_sweep_interrupted = true;
        }
        const bool watch = opts_.handle_signals || lease_ ||
                           opts_.cell_timeout_s > 0.0;
        if (watch && !pending_.empty()) {
            monitor_ = std::jthread(
                [this](std::stop_token stop) { monitorLoop(stop); });
        }
    }

    /** Each worker repeats claim, execute, commit until no cell
     *  is left or a drain starts; then every unsettled cell is
     *  labelled "cancelled: signal" (it re-runs on resume). */
    void
    runWorkers()
    {
        sweep_start_ = Clock::now();
        const size_t workers = std::min(slots_.size(), pending_.size());
        util::ThreadPool::parallelFor(
            workers, workers, [this](size_t w) {
                AttemptSlot &slot = slots_[w];
                for (size_t i = claim(slot); i < n_;
                     i = claim(slot)) {
                    RLR_PROF_SCOPE("sweep.cell");
                    SweepCell cell = freshCell(i);
                    const bool finished = execute(i, slot, cell);
                    commit(i, std::move(cell), finished, slot);
                }
            });
        for (size_t i = 0; i < n_; ++i) {
            if (!settled_[i]) {
                cells_[i].error = kCancelledSignal;
                ++counts_[kCancelled];
            }
        }
    }

    /** Stop the monitor; publish the counters into @p out. */
    std::vector<SweepCell>
    finish(stats::StatSet &out)
    {
        monitor_ = std::jthread(); // requests stop, then joins
        if (heartbeat_)
            heartbeat_->finish();
        if (opts_.progress)
            util::finishStatusLine();
        out.reset();
        for (size_t c = 0; c < kNumCounters; ++c)
            out.counter(kCounterNames[c]) = counts_[c];
        if (opts_.stable_telemetry) {
            // Leave only seed-determined fields in the export.
            for (auto &c : cells_) {
                c.start_seconds = c.wall_seconds = c.mips = 0.0;
                c.retry_wait_s = c.cpu_user_s = c.cpu_sys_s = 0.0;
                c.max_rss_kb = c.minor_faults = 0;
            }
        }
        return std::move(cells_);
    }

  private:
    SweepCell
    freshCell(size_t i) const
    {
        SweepCell cell;
        cell.workload = specs_[i].workload;
        cell.policy = specs_[i].policy;
        cell.seed = seeds_[i];
        return cell;
    }

    FaultAction
    faultFor(size_t i) const
    {
        return opts_.faults.actionFor(
            i, specs_[i].workload + ":" + specs_[i].policy,
            seeds_[i]);
    }

    /** The next cell for this worker; n_ once none is left. */
    size_t
    claim(AttemptSlot &slot)
    {
        if (lease_)
            return claimLeased(slot);
        const size_t k = cursor_.fetch_add(1);
        return k < pending_.size() && !draining_ ? pending_[k] : n_;
    }

    /** Merge records other workers committed; claim the first
     *  cell whose lease is free or expired (its worker died or
     *  hung). Polls while live workers hold every remaining cell. */
    size_t
    claimLeased(AttemptSlot &slot)
    {
        while (!draining_) {
            bool left = false, merged = false;
            for (size_t i = 0; i < n_ && !draining_; ++i) {
                {
                    std::scoped_lock lk(mu_);
                    if (settled_[i])
                        continue;
                }
                left = true;
                SweepCell rec;
                if (journal_->reload(hashes_[i], specs_[i],
                                     seeds_[i], rec)) {
                    settle(i, std::move(rec), true);
                    merged = true;
                    continue;
                }
                const Lease::Claim claimed =
                    lease_->tryClaim(hashes_[i], 1, stealAfter());
                if (!claimed.won)
                    continue; // held by a live worker
                // A worker commits before it releases its lease, so
                // a record committed since the reload above shows
                // now: merge it rather than run the cell twice.
                if (journal_->reload(hashes_[i], specs_[i],
                                     seeds_[i], rec)) {
                    lease_->release(hashes_[i], claimed.fence);
                    settle(i, std::move(rec), true);
                    merged = true;
                    continue;
                }
                if (claimed.stole)
                    ++counts_[kSteals];
                armLease(slot, i, claimed.fence);
                return i;
            }
            if (!left)
                return n_;
            if (!merged)
                sleepInterruptible(kClaimPollS, draining_);
        }
        return n_;
    }

    /** Steal only after max(TTL, 3 x median committed cell
     *  wall), so slow cells on a loaded host are not re-issued
     *  even if renewal lags. */
    double
    stealAfter()
    {
        std::scoped_lock lk(mu_);
        if (walls_.empty())
            return opts_.dist.lease_ttl_s;
        std::vector<double> s(walls_);
        std::nth_element(s.begin(), s.begin() + s.size() / 2,
                         s.end());
        return std::max(opts_.dist.lease_ttl_s,
                        3.0 * s[s.size() / 2]);
    }

    /** Hand a won lease to the monitor's renewal, then raise the
     *  distributed faults. */
    void
    armLease(AttemptSlot &slot, size_t i, uint64_t fence)
    {
        slot.stalled = false;
        slot.lease_hash = hashes_[i];
        slot.lease_attempt = 1;
        slot.lease_renew_ms = nowMillis();
        // Arm renewal last: the monitor ignores the slot until
        // the fence is published.
        slot.lease_fence = fence;

        // Gated on fencing token 1 so only the FIRST claimant
        // misbehaves — survivors that re-claim the cell run it
        // clean and the sweep still converges.
        if (fence > 1 || draining_)
            return;
        const FaultKind kind = faultFor(i).kind;
        if (kind == FaultKind::KillWorker)
            std::raise(SIGKILL);
        if (kind == FaultKind::StallWorker) {
            // Stop renewing and outlive the TTL: the lease
            // expires, a survivor re-issues the cell, and our
            // eventual commit is fenced off.
            slot.stalled = true;
            sleepInterruptible(opts_.dist.lease_ttl_s * 3.0,
                               draining_);
        }
    }

    /** Run cell @p i's attempts (faults, watchdog, retries) into
     *  @p cell. @return false when a signal drain cancelled it. */
    bool
    execute(size_t i, AttemptSlot &slot, SweepCell &cell)
    {
        const SweepRunner::CellSpec &spec = specs_[i];
        const FaultAction fault = faultFor(i);
        // Deterministic crash for the crash/resume harness: die
        // the instant this cell is reached, no flushing.
        if (fault.kind == FaultKind::AbortProcess && !draining_)
            std::raise(SIGKILL);

        SimParams p = params_;
        p.llc_policy = cell.policy;
        p.seed = cell.seed;
        p.cancel = &slot.token;

        const auto cell_start = Clock::now();
        cell.start_seconds = secondsSince(sweep_start_);
        const obs::ResourceSample res_start =
            obs::ResourceSample::now(
                obs::ResourceSample::Scope::Thread);

        const uint32_t max_attempts = 1 + opts_.cell_retries;
        double backoff_prev = opts_.retry_base_s;
        util::Rng retry_rng(mix64(cell.seed ^ 0x7265747279ULL));
        bool cancelled = false;

        for (uint32_t attempt = 1; attempt <= max_attempts;
             ++attempt) {
            slot.lease_attempt = attempt;
            cell.error.clear();
            cell.timed_out = false;
            if (draining_) {
                cell.error = kCancelledSignal;
                cancelled = true;
                break;
            }
            cell.attempts = attempt;
            slot.token.reset();
            if (heartbeat_) {
                heartbeat_->cellStarted(
                    spec.workload + ":" + spec.policy, attempt);
            }
            if (journal_)
                journal_->markInFlight(hashes_[i], spec, attempt);
            if (opts_.cell_timeout_s > 0.0) {
                slot.deadline_ms = nowMillis() +
                                   static_cast<int64_t>(
                                       opts_.cell_timeout_s * 1000.0);
            }
            bool retryable = false;
            try {
                injectFault(fault, attempt, slot.token);
                cell.result = cell_fn_
                                  ? cell_fn_(spec, p)
                                  : runWorkloads(spec.cores, p);
            } catch (const util::CancelledError &e) {
                using Reason = util::CancelToken::Reason;
                if (e.reason() == Reason::Signal) {
                    cell.error = kCancelledSignal;
                    cancelled = true;
                } else if (e.reason() == Reason::Timeout) {
                    // Derived from the flag value, not measured
                    // time, so resumed exports stay byte-equal.
                    cell.error = util::format(
                        "timeout: attempt exceeded "
                        "--cell-timeout {}s",
                        number(opts_.cell_timeout_s));
                    cell.timed_out = true;
                    retryable = true;
                    ++counts_[kTimeouts];
                } else {
                    cell.error = e.what();
                }
            } catch (const RetryableError &e) {
                cell.error = e.what();
                retryable = true;
            } catch (const std::exception &e) {
                cell.error = e.what();
            } catch (...) {
                cell.error = "unknown exception";
            }
            // The slot's token serves this worker's next attempt
            // too: let a claimed timeout cancel land before that.
            if (slot.deadline_ms.exchange(-1) == -2) {
                while (!slot.token.cancelled())
                    std::this_thread::yield();
            }
            if (cancelled || cell.ok())
                break;
            if (!retryable || attempt == max_attempts)
                break;
            ++counts_[kRetries];
            const double wait = decorrelatedJitter(
                retry_rng, backoff_prev, opts_.retry_base_s,
                opts_.retry_cap_s);
            cell.retry_wait_s += wait;
            sleepInterruptible(wait, draining_);
        }

        cell.wall_seconds = secondsSince(cell_start);
        if (cell.ok() && cell.wall_seconds > 0.0) {
            cell.mips = static_cast<double>(
                            cell.result.total_instructions) /
                        cell.wall_seconds / 1e6;
        }
        const obs::ResourceSample res_delta =
            obs::ResourceSample::now(
                obs::ResourceSample::Scope::Thread)
                .deltaFrom(res_start);
        cell.cpu_user_s = res_delta.cpu_user_s;
        cell.cpu_sys_s = res_delta.cpu_sys_s;
        cell.max_rss_kb = res_delta.max_rss_kb;
        cell.minor_faults = res_delta.minor_faults;
        if (heartbeat_)
            heartbeat_->cellFinished();
        return !cancelled;
    }

    /** Settle, journal and release an executed cell. A cancelled
     *  cell is kept unsettled; one whose lease was stolen while it
     *  ran is dropped (the thief's commit is authoritative). */
    void
    commit(size_t i, SweepCell &&cell, bool finished,
           AttemptSlot &slot)
    {
        const uint64_t fence = slot.lease_fence;
        if (!finished) {
            std::scoped_lock lk(mu_);
            if (!settled_[i])
                cells_[i] = std::move(cell);
        } else if (lease_ && !lease_->stillHeld(hashes_[i], fence)) {
            ++counts_[kFenced];
        } else if (settle(i, std::move(cell), false)) {
            if (journal_) {
                journal_->append(hashes_[i], cells_[i],
                                 faultFor(i).kind ==
                                     FaultKind::CorruptJournal);
            }
            if (lease_)
                lease_->release(hashes_[i], fence);
        }
        slot.lease_fence = 0;
        slot.stalled = false;
    }

    /** The one step shared by commit and @p merged records:
     *  settled mask, counters, heartbeat, progress line.
     *  @return false when the cell had already settled. */
    bool
    settle(size_t i, SweepCell &&cell, bool merged)
    {
        {
            std::scoped_lock lk(mu_);
            if (settled_[i])
                return false;
            settled_[i] = 1;
            if (!merged)
                walls_.push_back(cell.wall_seconds);
            cells_[i] = std::move(cell);
        }
        // Nothing writes a settled cell again: read it unlocked.
        const bool ok = cells_[i].ok();
        ++counts_[merged ? kMerged : kCompleted];
        if (!ok)
            ++counts_[kFailed];
        if (heartbeat_)
            heartbeat_->cellSettled(ok);
        const uint64_t fresh = settled_now_.fetch_add(1) + 1;
        if (opts_.progress) {
            const uint64_t resumed = counts_[kResumed];
            const double elapsed = secondsSince(sweep_start_);
            const double eta =
                elapsed / static_cast<double>(fresh) *
                static_cast<double>(n_ - resumed - fresh);
            // Sticky line: log messages erase and repaint it.
            util::setStatusLine(util::format(
                "[sweep] {}/{} cells ({} resumed), {:.1f}s "
                "elapsed, eta {:.1f}s",
                resumed + fresh, n_, resumed, elapsed, eta));
        }
        return true;
    }

    /** Watchdog, signal drain and lease renewal, every 20 ms. */
    void
    monitorLoop(const std::stop_token &stop)
    {
        const auto renew_every = static_cast<int64_t>(
            opts_.dist.lease_ttl_s * 1000.0 / 3.0);
        while (!stop.stop_requested()) {
            const int sig = g_signal_caught;
            if (opts_.handle_signals && sig != 0 &&
                !draining_.exchange(true)) {
                g_sweep_interrupted = true;
                // Serialized with the progress status line by
                // the logging hook's mutex.
                util::warn("sweep caught signal {}: draining "
                           "(cancelling in-flight cells, keeping "
                           "journal + partial JSON)",
                           sig);
            }
            const int64_t now = nowMillis();
            for (auto &slot : slots_) {
                // Re-cancel every poll: attempts armed in the
                // drain's race window still get the signal reason.
                if (opts_.handle_signals && sig != 0) {
                    slot.token.cancel(
                        util::CancelToken::Reason::Signal);
                }
                // Claim an expired deadline before cancelling, so
                // the cancel cannot hit the worker's next attempt.
                int64_t deadline = slot.deadline_ms;
                if (deadline >= 0 && now > deadline &&
                    slot.deadline_ms.compare_exchange_strong(
                        deadline, -2)) {
                    slot.token.cancel(
                        util::CancelToken::Reason::Timeout);
                }
                // Renew held leases every TTL/3 so a live
                // worker's cells are never stolen.
                const uint64_t fence = slot.lease_fence;
                if (lease_ && fence != 0 && !slot.stalled &&
                    now - slot.lease_renew_ms >= renew_every) {
                    lease_->renew(slot.lease_hash, slot.lease_attempt,
                                  fence);
                    slot.lease_renew_ms = nowMillis();
                }
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    }

    const SimParams &params_;
    const SweepOptions &opts_;
    const SweepRunner::CellFn &cell_fn_;
    const std::vector<SweepRunner::CellSpec> specs_;
    const size_t n_;
    std::vector<uint64_t> seeds_;
    std::vector<uint64_t> hashes_; // journal / lease names
    std::vector<SweepCell> cells_;
    std::unique_ptr<SweepJournal> journal_;
    std::unique_ptr<Lease> lease_;
    std::unique_ptr<obs::HeartbeatWriter> heartbeat_;
    std::vector<size_t> pending_; // unsettled after resume
    std::atomic<size_t> cursor_{0}; // next local claim in pending_

    /** Guards settled_, walls_ and the cells_ of unsettled cells. */
    std::mutex mu_;
    std::vector<char> settled_;
    std::vector<double> walls_; // committed cell wall clocks

    std::atomic<uint64_t> counts_[kNumCounters] = {};
    std::atomic<uint64_t> settled_now_{0}; // settled after resume
    Clock::time_point sweep_start_;
    std::vector<AttemptSlot> slots_; // one per worker thread
    SignalGuard signal_guard_;
    std::atomic<bool> draining_{false};
    std::jthread monitor_; // last: stops before what it watches
};

} // namespace

SweepRunner::SweepRunner(SimParams params, SweepOptions opts)
    : params_(std::move(params)), opts_(std::move(opts))
{
}

uint64_t
SweepRunner::cellSeed(uint64_t master_seed,
                      const std::string &workload)
{
    return mix64(master_seed ^ hashLabel(workload));
}

bool
SweepRunner::interrupted()
{
    return g_sweep_interrupted.load(std::memory_order_relaxed);
}

std::vector<SweepCell>
SweepRunner::run(const std::vector<std::string> &workloads,
                 const std::vector<std::string> &policies)
{
    std::vector<CellSpec> specs;
    specs.reserve(workloads.size() * policies.size());
    for (const auto &w : workloads)
        for (const auto &p : policies)
            specs.push_back(CellSpec{w, p, {w}});
    return runCells(std::move(specs));
}

std::vector<SweepCell>
SweepRunner::runCells(std::vector<CellSpec> specs)
{
    SweepRun run(params_, opts_, cell_fn_, std::move(specs));
    run.resume();
    run.startMonitor();
    run.runWorkers();
    std::vector<SweepCell> cells = run.finish(sweep_stats_);
    if (!opts_.json_path.empty())
        writeJson(opts_.json_path, cells);
    return cells;
}

bool
SweepRunner::anyFailed(const std::vector<SweepCell> &cells)
{
    for (const auto &c : cells)
        if (!c.ok())
            return true;
    return false;
}

util::Table
SweepRunner::errorTable(const std::vector<SweepCell> &cells)
{
    util::Table table({"Workload", "Policy", "Error"});
    for (const auto &c : cells)
        if (!c.ok())
            table.addRow({c.workload, c.policy, c.error});
    return table;
}

std::string
SweepRunner::toJson(const std::vector<SweepCell> &cells)
{
    std::string out = "[\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &c = cells[i];
        out += "  {";
        out += util::format("\"workload\": \"{}\", ",
                            escape(c.workload));
        out += util::format("\"policy\": \"{}\", ",
                            escape(c.policy));
        out += util::format("\"seed\": {}, ", c.seed);
        if (c.ok()) {
            out += util::format(
                "\"hit_rate\": {}, ",
                number(c.result.llcDemandHitRate()));
            out += util::format(
                "\"mpki\": {}, ", number(c.result.llcDemandMpki()));
            out += util::format("\"ipc\": {}, ",
                                number(c.result.ipc()));
            out += util::format("\"instructions\": {}, ",
                                c.result.total_instructions);
            // Per-core outcomes (fig13-style weighted speedups
            // need every core's IPC, not just core 0's).
            out += "\"cores\": [";
            for (size_t k = 0; k < c.result.cores.size(); ++k) {
                const CoreResult &core = c.result.cores[k];
                if (k)
                    out += ", ";
                out += util::format(
                    "{{\"workload\": \"{}\", \"ipc\": {}, "
                    "\"instructions\": {}}}",
                    escape(core.workload), number(core.ipc),
                    core.instructions);
            }
            out += "], ";
            // Full registry snapshot (counters/formulas/
            // histograms) of the simulated system.
            if (!c.result.stats.empty()) {
                std::string snap = stats::toJson(c.result.stats);
                while (!snap.empty() && snap.back() == '\n')
                    snap.pop_back();
                out += "\"stats\": " + snap + ", ";
            }
        } else {
            out += "\"hit_rate\": null, \"mpki\": null, "
                   "\"ipc\": null, \"instructions\": null, "
                   "\"cores\": [], ";
        }
        out += util::format("\"runtime_s\": {}, ",
                            number(c.wall_seconds));
        out += util::format("\"mips\": {}, ", number(c.mips));
        out += util::format("\"attempts\": {}, ", c.attempts);
        out += util::format("\"retry_wait_s\": {}, ",
                            number(c.retry_wait_s));
        out += util::format("\"cpu_user_s\": {}, ",
                            number(c.cpu_user_s));
        out += util::format("\"cpu_sys_s\": {}, ",
                            number(c.cpu_sys_s));
        out += util::format("\"max_rss_kb\": {}, ",
                            c.max_rss_kb);
        out += util::format("\"minor_faults\": {}, ",
                            c.minor_faults);
        out += c.ok() ? "\"error\": null"
                      : util::format("\"error\": \"{}\"",
                                     escape(c.error));
        out += i + 1 < cells.size() ? "},\n" : "}\n";
    }
    out += "]\n";
    return out;
}

std::vector<obs::TraceSpan>
SweepRunner::cellTraceSpans(const std::vector<SweepCell> &cells)
{
    std::vector<obs::TraceSpan> spans;
    spans.reserve(cells.size());
    for (const SweepCell &c : cells) {
        obs::TraceSpan s;
        s.name = c.workload + "/" + c.policy;
        s.category = c.ok() ? "cell" : "cell,error";
        s.start_us =
            static_cast<uint64_t>(c.start_seconds * 1e6);
        s.duration_us =
            static_cast<uint64_t>(c.wall_seconds * 1e6);
        s.args.emplace_back("workload",
                            "\"" + escape(c.workload) + "\"");
        s.args.emplace_back("policy",
                            "\"" + escape(c.policy) + "\"");
        s.args.emplace_back("seed", util::format("{}", c.seed));
        s.args.emplace_back("mips", number(c.mips));
        if (!c.ok()) {
            s.args.emplace_back("error",
                                "\"" + escape(c.error) + "\"");
        }
        spans.push_back(std::move(s));
    }
    return spans;
}

std::string
SweepRunner::chromeTraceJson(const std::vector<SweepCell> &cells)
{
    std::vector<obs::TraceSpan> spans = cellTraceSpans(cells);
    obs::assignLanes(spans);
    return obs::chromeTraceJson(spans, "sweep");
}

void
SweepRunner::writeChromeTrace(const std::string &path,
                              const std::vector<SweepCell> &cells)
{
    util::atomicWriteFileOrFatal(path, chromeTraceJson(cells));
}

void
SweepRunner::writeJson(const std::string &path,
                       const std::vector<SweepCell> &cells)
{
    util::atomicWriteFileOrFatal(path, toJson(cells));
}

} // namespace rlr::sim

#include "obs/heartbeat.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/resource.hh"
#include "stats/export.hh"
#include "util/atomic_file.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace rlr::obs
{

std::string
heartbeatToJson(const Heartbeat &hb)
{
    std::string out = "{\n";
    out += "  \"format\": \"rlr-heartbeat\",\n";
    out += util::format("  \"sequence\": {},\n", hb.sequence);
    out += util::format("  \"elapsed_s\": {:.3f},\n",
                        hb.elapsed_s);
    out += util::format("  \"cells_total\": {},\n",
                        hb.cells_total);
    out += util::format("  \"cells_done\": {},\n", hb.cells_done);
    out += util::format("  \"cells_failed\": {},\n",
                        hb.cells_failed);
    out += util::format("  \"cells_resumed\": {},\n",
                        hb.cells_resumed);
    out += util::format("  \"cells_running\": {},\n",
                        hb.cells_running);
    out += util::format("  \"throughput\": {:.4f},\n",
                        hb.throughput);
    out += util::format("  \"eta_s\": {:.1f},\n", hb.eta_s);
    out += util::format("  \"rss_kb\": {},\n", hb.rss_kb);
    out += util::format("  \"max_rss_kb\": {},\n", hb.max_rss_kb);
    out += util::format("  \"done\": {},\n",
                        hb.done ? "true" : "false");
    out += "  \"workers\": [";
    for (size_t i = 0; i < hb.workers.size(); ++i) {
        const HeartbeatWorker &w = hb.workers[i];
        out += i == 0 ? "\n" : ",\n";
        out += util::format(
            "    {{\"worker\": {}, \"cell\": \"{}\", "
            "\"attempt\": {}, \"age_s\": {:.3f}}}",
            w.worker, stats::json::escape(w.cell), w.attempt,
            w.age_s);
    }
    if (!hb.workers.empty())
        out += "\n  ";
    out += "],\n";
    out += "  \"eor\": 1\n";
    out += "}\n";
    return out;
}

Heartbeat
heartbeatFromJson(const std::string &text)
{
    const auto root = stats::json::parse(text);
    if (!root.isObject() ||
        root.stringOr("format", "") != "rlr-heartbeat") {
        throw std::runtime_error(
            "not a heartbeat file (missing "
            "\"format\": \"rlr-heartbeat\")");
    }
    if (root.numberOr("eor", 0) != 1) {
        throw std::runtime_error(
            "truncated heartbeat (missing eor marker)");
    }
    Heartbeat hb;
    hb.sequence =
        static_cast<uint64_t>(root.numberOr("sequence", 0));
    hb.elapsed_s = root.numberOr("elapsed_s", 0);
    hb.cells_total =
        static_cast<uint64_t>(root.numberOr("cells_total", 0));
    hb.cells_done =
        static_cast<uint64_t>(root.numberOr("cells_done", 0));
    hb.cells_failed =
        static_cast<uint64_t>(root.numberOr("cells_failed", 0));
    hb.cells_resumed =
        static_cast<uint64_t>(root.numberOr("cells_resumed", 0));
    hb.cells_running =
        static_cast<uint64_t>(root.numberOr("cells_running", 0));
    hb.throughput = root.numberOr("throughput", 0);
    hb.eta_s = root.numberOr("eta_s", 0);
    hb.rss_kb = static_cast<uint64_t>(root.numberOr("rss_kb", 0));
    hb.max_rss_kb =
        static_cast<uint64_t>(root.numberOr("max_rss_kb", 0));
    if (const auto *done = root.find("done");
        done != nullptr &&
        done->kind == stats::json::Value::Kind::Bool) {
        hb.done = done->boolean;
    }
    if (const auto *workers = root.find("workers");
        workers != nullptr && workers->isArray()) {
        for (const auto &wv : workers->array) {
            HeartbeatWorker w;
            w.worker = static_cast<uint32_t>(
                wv.numberOr("worker", 0));
            w.cell = wv.stringOr("cell", "");
            w.attempt = static_cast<uint32_t>(
                wv.numberOr("attempt", 0));
            w.age_s = wv.numberOr("age_s", 0);
            hb.workers.push_back(std::move(w));
        }
    }
    return hb;
}

struct HeartbeatWriter::Impl
{
    struct WorkerSlot
    {
        uint32_t index = 0;
        std::string cell;
        uint32_t attempt = 0;
        std::chrono::steady_clock::time_point since{};
    };

    std::string path;
    double period_s;
    uint64_t cells_total;
    uint64_t cells_resumed;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();

    mutable std::mutex mutex;
    std::condition_variable cv;
    bool stop = false;
    uint64_t sequence = 0;
    uint64_t done = 0;
    uint64_t failed = 0;
    /** Worker slots keyed by OS thread id, indices first-seen. */
    std::map<std::thread::id, WorkerSlot> workers;

    std::thread writer;

    Heartbeat
    build()
    {
        // Caller holds `mutex`.
        const auto now = std::chrono::steady_clock::now();
        Heartbeat hb;
        hb.sequence = ++sequence;
        hb.elapsed_s =
            std::chrono::duration<double>(now - start).count();
        hb.cells_total = cells_total;
        hb.cells_done = done;
        hb.cells_failed = failed;
        hb.cells_resumed = cells_resumed;
        const ResourceSample res =
            ResourceSample::now(ResourceSample::Scope::Process);
        hb.rss_kb = currentRssKb();
        hb.max_rss_kb = res.max_rss_kb;
        for (const auto &[tid, slot] : workers) {
            if (slot.cell.empty())
                continue;
            ++hb.cells_running;
            HeartbeatWorker w;
            w.worker = slot.index;
            w.cell = slot.cell;
            w.attempt = slot.attempt;
            w.age_s = std::chrono::duration<double>(
                          now - slot.since)
                          .count();
            hb.workers.push_back(std::move(w));
        }
        std::sort(hb.workers.begin(), hb.workers.end(),
                  [](const HeartbeatWorker &a,
                     const HeartbeatWorker &b) {
                      return a.worker < b.worker;
                  });
        if (hb.elapsed_s > 0 && done > 0) {
            hb.throughput =
                static_cast<double>(done) / hb.elapsed_s;
            // Resumed cells were never run here; only fresh cells
            // inform the rate, so exclude both from the backlog.
            const uint64_t settled = done + cells_resumed;
            const uint64_t left = cells_total > settled
                                      ? cells_total - settled
                                      : 0;
            hb.eta_s =
                static_cast<double>(left) / hb.throughput;
        }
        return hb;
    }

    void
    write(const Heartbeat &hb)
    {
        try {
            util::atomicWriteFile(path, heartbeatToJson(hb));
        } catch (const std::exception &e) {
            // A dead heartbeat must never kill the sweep.
            util::warn("heartbeat write failed: {}", e.what());
        }
    }

    void
    loop()
    {
        std::unique_lock lock(mutex);
        while (!stop) {
            Heartbeat hb = build();
            lock.unlock();
            write(hb);
            lock.lock();
            cv.wait_for(lock,
                        std::chrono::duration<double>(period_s),
                        [this] { return stop; });
        }
    }
};

HeartbeatWriter::HeartbeatWriter(std::string path,
                                 double period_s,
                                 uint64_t cells_total,
                                 uint64_t cells_resumed)
    : impl_(std::make_unique<Impl>())
{
    impl_->path = std::move(path);
    impl_->period_s = period_s > 0.01 ? period_s : 0.01;
    impl_->cells_total = cells_total;
    impl_->cells_resumed = cells_resumed;
    impl_->writer = std::thread([this] { impl_->loop(); });
}

HeartbeatWriter::~HeartbeatWriter()
{
    finish();
}

void
HeartbeatWriter::cellStarted(const std::string &cell,
                             uint32_t attempt)
{
    std::scoped_lock lock(impl_->mutex);
    auto [it, inserted] = impl_->workers.try_emplace(
        std::this_thread::get_id());
    if (inserted) {
        it->second.index = static_cast<uint32_t>(
            impl_->workers.size() - 1);
    }
    it->second.cell = cell;
    it->second.attempt = attempt;
    it->second.since = std::chrono::steady_clock::now();
}

void
HeartbeatWriter::cellFinished()
{
    std::scoped_lock lock(impl_->mutex);
    auto it = impl_->workers.find(std::this_thread::get_id());
    if (it != impl_->workers.end())
        it->second.cell.clear();
}

void
HeartbeatWriter::cellSettled(bool ok)
{
    std::scoped_lock lock(impl_->mutex);
    ++impl_->done;
    if (!ok)
        ++impl_->failed;
}

void
HeartbeatWriter::finish()
{
    {
        std::scoped_lock lock(impl_->mutex);
        if (impl_->stop)
            return;
        impl_->stop = true;
    }
    impl_->cv.notify_all();
    if (impl_->writer.joinable())
        impl_->writer.join();
    Heartbeat hb;
    {
        std::scoped_lock lock(impl_->mutex);
        hb = impl_->build();
    }
    hb.done = true;
    impl_->write(hb);
}

Heartbeat
HeartbeatWriter::snapshot() const
{
    std::scoped_lock lock(impl_->mutex);
    return impl_->build();
}

} // namespace rlr::obs

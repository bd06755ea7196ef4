#include "prefetch/ip_stride.hh"

#include "util/bits.hh"

namespace rlr::prefetch
{

IpStridePrefetcher::IpStridePrefetcher(IpStrideConfig config)
    : config_(config)
{
}

void
IpStridePrefetcher::bind(const cache::CacheGeometry &geom)
{
    (void)geom;
    table_.assign(config_.table_entries, Entry());
    for (auto &e : table_)
        e.confidence = util::SatCounter(config_.confidence_bits);
}

void
IpStridePrefetcher::observe(uint64_t pc, uint64_t address, bool hit,
                            std::vector<cache::PrefetchRequest> &out)
{
    (void)hit;
    if (pc == 0 || table_.empty())
        return;

    const uint64_t line = address >> cache::kLineBits;
    const size_t idx =
        util::foldXor(pc >> 2, util::ceilLog2(table_.size())) %
        table_.size();
    Entry &e = table_[idx];

    if (!e.valid || e.pc_tag != pc) {
        e.valid = true;
        e.pc_tag = pc;
        e.last_line = line;
        e.stride = 0;
        e.confidence.reset();
        return;
    }

    const int64_t stride = static_cast<int64_t>(line) -
                           static_cast<int64_t>(e.last_line);
    e.last_line = line;
    if (stride == 0)
        return;

    if (stride == e.stride) {
        ++e.confidence;
    } else {
        e.stride = stride;
        e.confidence.reset();
        e.cursor_valid = false;
        return;
    }

    if (!e.confidence.saturated())
        return;

    // Follow the stream: issue only lines beyond the prefetch
    // cursor, so overlapping degree windows never re-request
    // already-prefetched lines.
    for (uint32_t d = 1; d <= config_.degree; ++d) {
        const int64_t target =
            static_cast<int64_t>(line) + stride * static_cast<int64_t>(d);
        if (target <= 0)
            break;
        if (e.cursor_valid &&
            ((stride > 0 && target <= e.pf_cursor) ||
             (stride < 0 && target >= e.pf_cursor)))
            continue;
        e.pf_cursor = target;
        e.cursor_valid = true;
        cache::PrefetchRequest req;
        req.address = static_cast<uint64_t>(target)
                      << cache::kLineBits;
        req.confidence = e.confidence.fraction();
        ++proposals_;
        out.push_back(req);
    }
}

} // namespace rlr::prefetch

#include "util/histogram.hh"

#include <algorithm>
#include "util/format.hh"

#include "util/logging.hh"

namespace rlr::util
{

Histogram::Histogram(size_t nbuckets, uint64_t bucket_width)
    : buckets_(nbuckets, 0), width_(bucket_width), overflow_(0),
      count_(0), sum_(0)
{
    ensure(nbuckets > 0 && bucket_width > 0, "Histogram: bad shape");
}

void
Histogram::sample(uint64_t value, uint64_t count)
{
    const size_t idx = static_cast<size_t>(value / width_);
    if (idx < buckets_.size())
        buckets_[idx] += count;
    else
        overflow_ += count;
    count_ += count;
    sum_ += value * count;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.buckets_.size() != buckets_.size() ||
        other.width_ != width_) {
        fatal("Histogram::merge: shape mismatch "
              "({} buckets of width {} vs {} buckets of width {})",
              buckets_.size(), width_, other.buckets_.size(),
              other.width_);
    }
    for (size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    overflow_ += other.overflow_;
    count_ += other.count_;
    sum_ += other.sum_;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    overflow_ = 0;
    count_ = 0;
    sum_ = 0;
}

double
Histogram::mean() const
{
    return count_ == 0
        ? 0.0
        : static_cast<double>(sum_) / static_cast<double>(count_);
}

uint64_t
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    const auto target = static_cast<uint64_t>(
        q * static_cast<double>(count_));
    uint64_t acc = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        acc += buckets_[i];
        if (acc >= target)
            return (i + 1) * width_ - 1;
    }
    return buckets_.size() * width_;
}

std::string
Histogram::render(size_t max_width) const
{
    uint64_t peak = overflow_;
    for (const auto b : buckets_)
        peak = std::max(peak, b);
    if (peak == 0)
        return "(empty)\n";

    std::string out;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        const size_t bar = std::max<size_t>(
            1, static_cast<size_t>(buckets_[i] * max_width / peak));
        out += util::format("[{:>8}] {:>10} {}\n", i * width_,
                           buckets_[i], std::string(bar, '#'));
    }
    if (overflow_ > 0) {
        const size_t bar = std::max<size_t>(
            1, static_cast<size_t>(overflow_ * max_width / peak));
        out += util::format("[overflow] {:>10} {}\n", overflow_,
                           std::string(bar, '#'));
    }
    return out;
}

} // namespace rlr::util
